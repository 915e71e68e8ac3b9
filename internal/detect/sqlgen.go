package detect

import (
	"fmt"
	"strings"
)

// generateSQL builds the fixed statement set. The statements depend
// only on the schema R — never on Σ, the number of pattern tuples or
// the set sizes, which all live in data tables (the paper's key idea:
// "treat pattern tableaux as data tables, rather than as meta-data").
func (d *Detector) generateSQL() {
	d.stmts = statements{
		qsvSelect:    d.genQsvSelect(),
		qsvUpdate:    d.genQsvUpdate(),
		qmvInsert:    d.genQmvInsert(),
		mvUpdate:     d.genMVUpdate(),
		resetFlags:   fmt.Sprintf("UPDATE %s SET %s = 0, %s = 0", d.dataTable, ColSV, ColMV),
		keysFromIns:  d.genKeys(d.insTable+" t", ""),
		keysFromDel:  d.genKeys(fmt.Sprintf("%s x, %s t", d.delTable, d.dataTable), fmt.Sprintf("t.%s = x.%s", ColRID, ColRID)),
		auxDeleteAff: d.genAuxDeleteAffected(),
		auxSaveOld:   d.genAuxSaveOld(),
		auxNewComp:   d.genAuxNewCompute(),
		auxOldGone:   d.genAuxOldGone(),
		auxRecompute: d.genAuxRecompute(),
		mvSetNew:     d.genMVSetNewRows(),
		mvSetOld:     d.genMVSetOldRows(),
		mvClear:      d.genMVClear(),
		svOnIns:      d.genSVUpdate(d.insTable),
		mergeIns:     fmt.Sprintf("INSERT INTO %s SELECT * FROM %s", d.dataTable, d.insTable),
		deleteRows: fmt.Sprintf("DELETE FROM %s t WHERE EXISTS (SELECT 1 FROM %s x WHERE x.%s = t.%s)",
			d.dataTable, d.delTable, ColRID, ColRID),
		qsvRIDsSlice:    d.genQsvRIDsSlice(),
		qmvGroupsCIDRng: d.genQmvGroupsCIDRange(),
		checkSVRIDs:     d.genCheckSVRIDs(),
		checkMVRIDs:     d.genCheckMVRIDs(),
		mvRIDsSlice:     d.genMVRIDsSlice(),
		counts: fmt.Sprintf("SELECT SUM(%[1]s), SUM(%[2]s), COUNT(*) FROM %[3]s WHERE %[1]s = 1 OR %[2]s = 1",
			ColSV, ColMV, d.dataTable),
		violations: d.genViolations(),
		flags:      fmt.Sprintf("SELECT %s, %s, %s FROM %s", ColRID, ColSV, ColMV, d.dataTable),
		rids:       fmt.Sprintf("SELECT %[1]s FROM %[2]s ORDER BY %[1]s", ColRID, d.dataTable),
	}
	// The batch-detection pipeline: the five fixed statements of
	// BatchDetect as one script, submitted in a single driver round
	// trip. The statement set stays fixed and Σ-independent; only the
	// packaging changes.
	d.stmts.batchScript = strings.Join([]string{
		d.stmts.resetFlags,
		d.stmts.qsvUpdate,
		"TRUNCATE TABLE " + d.auxTable,
		d.stmts.qmvInsert,
		d.stmts.mvUpdate,
	}, ";\n")
	// The incremental-maintenance pipeline (§V-B steps): parameter
	// placeholders index through the script in order, so the two
	// RID-threshold parameters (mvSetNew, mvSetOld) bind as ?1 and ?2.
	d.stmts.incScript = strings.Join([]string{
		d.stmts.svOnIns,
		"TRUNCATE TABLE " + d.keysTable,
		d.stmts.keysFromDel, // before the doomed rows disappear
		d.stmts.keysFromIns,
		"TRUNCATE TABLE " + d.auxOldTable,
		d.stmts.auxSaveOld,
		d.stmts.auxDeleteAff,
		d.stmts.deleteRows,
		d.stmts.mergeIns,
		d.stmts.auxRecompute,
		"TRUNCATE TABLE " + d.auxNewTable,
		d.stmts.auxNewComp,
		d.stmts.auxOldGone, // aux_old now holds the groups that stopped violating
		d.stmts.mvSetNew,
		d.stmts.mvSetOld,
		d.stmts.mvClear,
	}, ";\n")
}

// SQL returns the generated batch-detection queries (Qsv select form,
// SV update, Qmv insert, MV update) for inspection and testing.
func (d *Detector) SQL() (qsvSelect, qsvUpdate, qmvInsert, mvUpdate string) {
	return d.stmts.qsvSelect, d.stmts.qsvUpdate, d.stmts.qmvInsert, d.stmts.mvUpdate
}

// ParallelSQL returns the read-only statements the parallel detector
// fans across workers (RID-slice Qsv, CID-range Qmv grouping,
// RID-slice MV matching) for inspection and testing — in particular
// the EXPLAIN tests asserting that the RID-slice scans are range-
// pruned through the data table's ordered RID index.
func (d *Detector) ParallelSQL() (qsvRIDsSlice, qmvGroupsCIDRange, mvRIDsSlice string) {
	return d.stmts.qsvRIDsSlice, d.stmts.qmvGroupsCIDRng, d.stmts.mvRIDsSlice
}

// IncrementalSQL returns the statements of the §V-B maintenance script
// that reach the data table — the ones ΔD and the touched keys drive —
// for inspection and testing.
func (d *Detector) IncrementalSQL() (keysFromDel, deleteRows, auxRecompute, mvSetOld, mvClear string) {
	return d.stmts.keysFromDel, d.stmts.deleteRows, d.stmts.auxRecompute, d.stmts.mvSetOld, d.stmts.mvClear
}

// setProbe renders EXISTS (or NOT EXISTS) over a pattern-set table:
// "does t's A-value belong to the CID's set?" — the QA subqueries of
// Fig. 4, applied to the encoding tables only, never to the data.
func (d *Detector) setProbe(not bool, table, attr string) string {
	op := "EXISTS"
	if not {
		op = "NOT EXISTS"
	}
	return fmt.Sprintf("%s (SELECT 1 FROM %s s WHERE s.CID = c.CID AND s.VAL = t.%s)", op, table, attr)
}

// lhsMatch renders the conjunction "t[X] ≍ tp[X]" for the pattern
// tuple bound by enc row c. Codes: 1 ⇒ value must be in the set,
// 2 ⇒ value must be non-NULL and outside the set, 0/3 ⇒ no constraint.
func (d *Detector) lhsMatch() string {
	var conj []string
	for _, a := range d.schema.Attrs {
		tal := d.talName(a.Name)
		conj = append(conj,
			fmt.Sprintf("(c.%s_L <> %d OR %s)", a.Name, CodeIn, d.setProbe(false, tal, a.Name)),
			fmt.Sprintf("(c.%s_L <> %d OR (t.%s IS NOT NULL AND %s))",
				a.Name, CodeNotIn, a.Name, d.setProbe(true, tal, a.Name)),
		)
	}
	return strings.Join(conj, "\n    AND ")
}

// rhsViolate renders the disjunction "t[Y,Yp] does not match tp[Y,Yp]":
// some RHS attribute with an In pattern whose value is missing from the
// set, or with a NotIn pattern whose value is NULL or in the set.
// ABS() folds the Yp mirror codes onto the Y codes, as in Fig. 4.
func (d *Detector) rhsViolate() string {
	var disj []string
	for _, a := range d.schema.Attrs {
		tar := d.tarName(a.Name)
		disj = append(disj,
			fmt.Sprintf("(ABS(c.%s_R) = %d AND %s)", a.Name, CodeIn, d.setProbe(true, tar, a.Name)),
			fmt.Sprintf("(ABS(c.%s_R) = %d AND (t.%s IS NULL OR %s))",
				a.Name, CodeNotIn, a.Name, d.setProbe(false, tar, a.Name)),
		)
	}
	return strings.Join(disj, "\n    OR ")
}

// genQsvSelect is Fig. 4 (top): the tuples violating some pattern
// constraint all by themselves.
func (d *Detector) genQsvSelect() string {
	cols := []string{"t." + ColRID}
	for _, a := range d.schema.Attrs {
		cols = append(cols, "t."+a.Name)
	}
	return fmt.Sprintf("SELECT DISTINCT %s FROM %s t, %s c\nWHERE %s\n  AND (%s)",
		strings.Join(cols, ", "), d.dataTable, d.encTable, d.lhsMatch(), d.rhsViolate())
}

// genQsvUpdate flags the Qsv result in place: SV := 1.
func (d *Detector) genQsvUpdate() string { return d.genSVUpdate(d.dataTable) }

func (d *Detector) genSVUpdate(table string) string {
	return fmt.Sprintf("UPDATE %s t SET %s = 1 WHERE EXISTS (SELECT 1 FROM %s c\n  WHERE %s\n  AND (%s))",
		table, ColSV, d.encTable, d.lhsMatch(), d.rhsViolate())
}

// caseProj renders the '@'-blanking projection of Fig. 4's macro for
// one attribute: the attribute value (as text) when the enc code says
// the attribute participates in the embedded FD on the given side, '@'
// otherwise. NULL values map to a distinct mark so SQL grouping agrees
// with the FD semantics (NULLs group together).
func (d *Detector) caseProj(side, attr string) string {
	return fmt.Sprintf("CASE WHEN c.%s_%s > 0 THEN COALESCE(TOTEXT(t.%s), '%s') ELSE '%s' END",
		attr, side, attr, nullMark, blankMark)
}

// macro renders the derived table of Fig. 4 (bottom): one row per
// (pattern tuple, matching data tuple), with attributes irrelevant to
// the embedded FD blanked out. extraWhere, when non-empty, is placed
// first so cheap restrictions short-circuit the pattern matching.
//
// The RHS guard drops pattern tuples whose embedded FD has no Y
// attribute: every RHS column of theirs projects to '@', so each of
// their groups holds one distinct RHS combination and can never
// violate. It reads only the enc row, so the planner decides it once
// per pattern and never scans D for such a CID.
func (d *Detector) macro(dataTable, extraWhere string) string {
	cols := []string{"c.CID AS CID"}
	for _, a := range d.schema.Attrs {
		cols = append(cols, fmt.Sprintf("%s AS %s_P", d.caseProj("L", a.Name), a.Name))
	}
	var rhs []string
	for _, a := range d.schema.Attrs {
		cols = append(cols, fmt.Sprintf("%s AS %s_RV", d.caseProj("R", a.Name), a.Name))
		rhs = append(rhs, fmt.Sprintf("c.%s_R > 0", a.Name))
	}
	where := "(" + strings.Join(rhs, " OR ") + ")\n    AND " + d.lhsMatch()
	if extraWhere != "" {
		where = extraWhere + "\n    AND " + where
	}
	return fmt.Sprintf("SELECT DISTINCT %s\n  FROM %s t, %s c\n  WHERE %s",
		strings.Join(cols, ",\n    "), dataTable, d.encTable, where)
}

// groupCols lists the Aux grouping key: CID plus every blanked LHS
// column.
func (d *Detector) groupCols() []string {
	cols := []string{"m.CID"}
	for _, a := range d.schema.Attrs {
		cols = append(cols, "m."+a.Name+"_P")
	}
	return cols
}

// genQmvInsert is Fig. 4 (bottom) materialized into Aux(D): the
// (cid, p) patterns of groups violating an embedded FD — groups that
// agree on the (blanked) LHS but contain more than one distinct
// (blanked) RHS combination.
func (d *Detector) genQmvInsert() string {
	return d.genQmvInsertRestricted("")
}

func (d *Detector) genQmvInsertRestricted(extraWhere string) string {
	return fmt.Sprintf("INSERT INTO %s %s", d.auxTable, d.genQmvSelect(extraWhere))
}

// genQmvSelect is the bare SELECT form of the Qmv grouping: the
// violating (cid, p) group keys, optionally restricted by extraWhere.
func (d *Detector) genQmvSelect(extraWhere string) string {
	g := d.groupCols()
	return fmt.Sprintf("SELECT %s FROM (%s\n) m\nGROUP BY %s\nHAVING COUNT(*) > 1",
		strings.Join(g, ", "), d.macro(d.dataTable, extraWhere), strings.Join(g, ", "))
}

// --- parallel detection (ParallelDetect) ---
//
// The parallel mode decomposes the two fixed detection queries into
// read-only violation queries that many workers can run concurrently
// under the engine's shared read lock: the Qsv scan partitions over
// RID slices of the data, the Qmv grouping fans over CID ranges of Σ
// (groups never span CIDs — the CID is part of the group key), and the
// MV flagging partitions over RID slices again. The statement texts
// stay fixed; slice and range bounds bind as parameters, so every task
// hits the compiled-plan cache.

// genQsvRIDsSlice finds the RIDs of single-tuple violators within a
// RID slice (params: lo, hi).
func (d *Detector) genQsvRIDsSlice() string {
	return fmt.Sprintf("SELECT DISTINCT t.%s FROM %s t, %s c\nWHERE t.%s >= ? AND t.%s <= ?\n  AND %s\n  AND (%s)",
		ColRID, d.dataTable, d.encTable, ColRID, ColRID, d.lhsMatch(), d.rhsViolate())
}

// genQmvGroupsCIDRange computes the violating group keys of a
// contiguous CID range (params: lo, hi). Grouping partitions cleanly
// along CIDs because the CID is part of every group key; ranging
// rather than going one-CID-at-a-time keeps the total scan count at
// the worker count, so a one-worker run does exactly the serial
// amount of work.
func (d *Detector) genQmvGroupsCIDRange() string {
	return d.genQmvSelect("c.CID >= ? AND c.CID <= ?")
}

// genMVRIDsSlice finds the RIDs matching any Aux pattern within a RID
// slice (params: lo, hi) — the read-only form of the MV update, with
// the same per-CID guard.
func (d *Detector) genMVRIDsSlice() string {
	// Flat semi-join form: the data slice joins enc directly instead of
	// sitting under an outer EXISTS, so the scan of the slice is a plain
	// conjunctive filter the engine's batch kernels handle — the EXISTS
	// wrapper forced the last row-at-a-time data scan in the parallel
	// statement set. DISTINCT collapses tuples matching several
	// patterns; the parallel driver sorts and dedups the merged slices
	// anyway, so the result contract is unchanged.
	return fmt.Sprintf("SELECT DISTINCT t.%s FROM %s t, %s c WHERE t.%s >= ? AND t.%s <= ? AND %s AND %s",
		ColRID, d.dataTable, d.encTable, ColRID, ColRID, d.cidGuard(d.auxTable), d.auxProbe(d.auxTable))
}

// cidGuard renders "the Aux-shaped table holds some row for c's CID".
// It reads only the enc row, so leading a conjunction with it lets the
// planner dismiss a whole pattern tuple — and its scan of D — once per
// pattern instead of once per (tuple, pattern) pair.
func (d *Detector) cidGuard(table string) string {
	return fmt.Sprintf("EXISTS (SELECT 1 FROM %s g WHERE g.CID = c.CID)", table)
}

// auxProbe renders "t matches some (cid, p) in table for c's CID": the
// equality of every blanked projection with the stored pattern. The
// whole conjunction is equality-over-outer-expressions, which the
// engine decorrelates into a single hash probe.
func (d *Detector) auxProbe(table string) string {
	conds := []string{"a.CID = c.CID"}
	for _, at := range d.schema.Attrs {
		conds = append(conds, fmt.Sprintf("a.%s_P = %s", at.Name, d.caseProj("L", at.Name)))
	}
	return fmt.Sprintf("EXISTS (SELECT 1 FROM %s a WHERE %s)", table, strings.Join(conds, " AND "))
}

// genMVUpdate flags every tuple matching an Aux pattern: MV := 1. The
// same per-CID guard as genMVSetOldRows leads the conjunction: it
// depends only on the pattern row, so the engine's planner evaluates
// it once per pattern and skips the projection probes for every data
// tuple when a CID has no violating groups at all.
func (d *Detector) genMVUpdate() string {
	return fmt.Sprintf("UPDATE %s t SET %s = 1 WHERE EXISTS (SELECT 1 FROM %s c WHERE %s AND %s)",
		d.dataTable, ColMV, d.encTable, d.cidGuard(d.auxTable), d.auxProbe(d.auxTable))
}

// genViolations reads the flagged rows, every data column, in RID
// order (served by the ordered RID index with no sort).
func (d *Detector) genViolations() string {
	cols := []string{ColRID}
	for _, a := range d.schema.Attrs {
		cols = append(cols, a.Name)
	}
	cols = append(cols, ColSV, ColMV)
	return fmt.Sprintf("SELECT %s FROM %s WHERE (%s = 1 OR %s = 1) ORDER BY %s",
		strings.Join(cols, ", "), d.dataTable, ColSV, ColMV, ColRID)
}

// --- advisory check (Check) ---
//
// The check statements run the two fixed detection queries over the
// staging table alone, against the committed flags and Aux. Check
// never writes the staging table: it runs them at a private overlay of
// the committed view in which the staging table holds the candidate
// tuples (sqldb.Snap.Overlay). They back the server's high-rate check
// endpoint: "would this tuple violate Σ?" answered at read cost.

// genCheckSVRIDs is Qsv over the candidate batch: the candidates that
// violate some pattern constraint all by themselves. Exact — SV is a
// per-tuple property, so the candidates alone answer it as well as
// merging would.
func (d *Detector) genCheckSVRIDs() string {
	return fmt.Sprintf("SELECT DISTINCT t.%s FROM %s t, %s c\nWHERE %s\n  AND (%s)",
		ColRID, d.insTable, d.encTable, d.lhsMatch(), d.rhsViolate())
}

// genCheckMVRIDs finds the candidate tuples whose blanked projection
// matches a currently-violating group (an Aux(D) member) — the same
// probe the incremental step's mvSetNew runs after a merge, minus the
// merge. A tuple that would *newly* tip a clean group into violation
// is not reported; that transition needs the recompute in ApplyUpdates.
func (d *Detector) genCheckMVRIDs() string {
	return fmt.Sprintf("SELECT DISTINCT t.%s FROM %s t, %s c WHERE %s AND %s",
		ColRID, d.insTable, d.encTable, d.cidGuard(d.auxTable), d.auxProbe(d.auxTable))
}

// genKeys collects the group keys touched by an update batch: the
// (cid, p) projections of every (tuple, pattern) match in the batch.
// from binds the batch's tuples as t: the ΔD⁺ staging table itself, or
// the ΔD⁻ staging table joined to D on RID, so the deleted tuples are
// found by probing D's RID index once per staged RID instead of by a
// scan of D.
func (d *Detector) genKeys(from, extraWhere string) string {
	cols := []string{"c.CID"}
	for _, a := range d.schema.Attrs {
		cols = append(cols, d.caseProj("L", a.Name))
	}
	where := d.lhsMatch()
	if extraWhere != "" {
		where = extraWhere + "\n    AND " + where
	}
	return fmt.Sprintf("INSERT INTO %s SELECT DISTINCT %s FROM %s, %s c WHERE %s",
		d.keysTable, strings.Join(cols, ",\n    "), from, d.encTable, where)
}

// auxMatch renders the column-wise equality of two Aux-shaped rows
// (alias a matching the bare table named target).
func (d *Detector) auxMatch(alias, target string) string {
	conds := []string{fmt.Sprintf("%s.CID = %s.CID", alias, target)}
	for _, at := range d.schema.Attrs {
		conds = append(conds, fmt.Sprintf("%s.%s_P = %s.%s_P", alias, at.Name, target, at.Name))
	}
	return strings.Join(conds, " AND ")
}

// genAuxDeleteAffected drops the Aux rows whose group key was touched;
// genAuxRecompute rebuilds exactly those groups from the current data.
func (d *Detector) genAuxDeleteAffected() string {
	return fmt.Sprintf("DELETE FROM %s WHERE EXISTS (SELECT 1 FROM %s k WHERE %s)",
		d.auxTable, d.keysTable, d.auxMatch("k", d.auxTable))
}

// genAuxSaveOld snapshots the touched Aux rows before the recompute so
// the insert path can tell groups that *became* violating apart from
// groups that already were.
func (d *Detector) genAuxSaveOld() string {
	cols := d.groupCols() // m.CID, m.A_P... — reuse with alias m
	sel := make([]string, len(cols))
	for i, c := range cols {
		sel[i] = strings.Replace(c, "m.", "m0.", 1)
	}
	return fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s m0 WHERE EXISTS (SELECT 1 FROM %s k WHERE %s)",
		d.auxOldTable, strings.Join(sel, ", "), d.auxTable, d.keysTable, d.auxMatch("k", "m0"))
}

// genAuxNewCompute collects the recomputed groups that were not
// violating before: rows of Aux matching a touched key but absent from
// the snapshot. Only the members of these groups can need an MV flip
// among pre-existing tuples.
func (d *Detector) genAuxNewCompute() string {
	cols := d.groupCols()
	sel := make([]string, len(cols))
	for i, c := range cols {
		sel[i] = strings.Replace(c, "m.", "m0.", 1)
	}
	return fmt.Sprintf(
		"INSERT INTO %s SELECT %s FROM %s m0 WHERE EXISTS (SELECT 1 FROM %s k WHERE %s) AND NOT EXISTS (SELECT 1 FROM %s o WHERE %s)",
		d.auxNewTable, strings.Join(sel, ", "), d.auxTable,
		d.keysTable, d.auxMatch("k", "m0"),
		d.auxOldTable, d.auxMatch("o", "m0"))
}

// genAuxOldGone reduces the aux_old snapshot to the touched groups
// that stopped violating: after the recompute, every snapshot row
// still in Aux is dropped. Only these groups can leave a tuple with a
// stale MV = 1, so they are all mvClear has to look at.
func (d *Detector) genAuxOldGone() string {
	return fmt.Sprintf("DELETE FROM %s o WHERE EXISTS (SELECT 1 FROM %s a WHERE %s)",
		d.auxOldTable, d.auxTable, d.auxMatch("a", "o"))
}

func (d *Detector) genAuxRecompute() string {
	return d.genQmvInsertRestricted(d.touchedGroups())
}

// touchedGroups restricts the Qmv macro to the touched group keys: the
// per-CID guard dismisses every pattern tuple with no touched key
// before D is scanned for it, and the keys probe dismisses the
// remaining untouched (tuple, pattern) pairs in O(1).
func (d *Detector) touchedGroups() string {
	return d.cidGuard(d.keysTable) + "\n    AND " + d.keysProbe()
}

// keysProbe renders "the (c, t) pair projects onto a touched group
// key" — a decorrelated hash probe placed first in conjunctions so
// untouched pairs are dismissed in O(1).
func (d *Detector) keysProbe() string {
	conds := []string{"k.CID = c.CID"}
	for _, a := range d.schema.Attrs {
		conds = append(conds, fmt.Sprintf("k.%s_P = %s", a.Name, d.caseProj("L", a.Name)))
	}
	return fmt.Sprintf("EXISTS (SELECT 1 FROM %s k WHERE %s)", d.keysTable, strings.Join(conds, " AND "))
}

// genMVSetNewRows flags freshly merged tuples (RID ≥ the ?-bound batch
// start) that match any Aux pattern. The RID range guard keeps the
// projection probes off the pre-existing rows entirely.
func (d *Detector) genMVSetNewRows() string {
	return fmt.Sprintf(
		"UPDATE %s t SET %s = 1 WHERE t.%s >= ? AND t.%s = 0 AND EXISTS (SELECT 1 FROM %s c WHERE %s)",
		d.dataTable, ColMV, ColRID, ColMV, d.encTable, d.auxProbe(d.auxTable))
}

// genMVSetOldRows flags pre-existing clean tuples whose group *became*
// violating — members of an aux_new group. A per-CID guard dismisses
// (tuple, pattern) pairs in O(1) when aux_new has nothing for the CID,
// which is the common case; with aux_new empty the statement degrades
// to one cheap probe per pair.
func (d *Detector) genMVSetOldRows() string {
	return fmt.Sprintf(
		"UPDATE %s t SET %s = 1 WHERE t.%s < ? AND t.%s = 0 AND EXISTS (SELECT 1 FROM %s c WHERE %s AND %s)",
		d.dataTable, ColMV, ColRID, ColMV, d.encTable, d.cidGuard(d.auxNewTable), d.auxProbe(d.auxNewTable))
}

// genMVClear clears MV on members of groups that stopped violating
// (aux_old after genAuxOldGone) that no longer match any Aux pattern at
// all — they may still be violating through another group, which the
// NOT EXISTS over the full Aux preserves. This is exact: a tuple with
// MV = 1 matched some Aux group before the update, and it needs
// clearing only if that group left Aux; only touched groups are
// recomputed, so only they can leave. The same per-CID guard as
// genMVSetOldRows leads, so with no group gone the statement never
// scans D.
func (d *Detector) genMVClear() string {
	return fmt.Sprintf(
		"UPDATE %s t SET %s = 0 WHERE t.%s = 1 AND EXISTS (SELECT 1 FROM %s c WHERE %s AND %s) AND NOT EXISTS (SELECT 1 FROM %s c WHERE %s)",
		d.dataTable, ColMV, ColMV, d.encTable, d.cidGuard(d.auxOldTable), d.auxProbe(d.auxOldTable),
		d.encTable, d.auxProbe(d.auxTable))
}
