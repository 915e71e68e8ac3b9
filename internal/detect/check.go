package detect

import (
	"fmt"

	"ecfd/internal/relation"
)

// CheckResult reports the advisory verdict for one tuple of a Check
// batch.
type CheckResult struct {
	SV bool // the tuple violates some pattern constraint by itself (exact)
	MV bool // the tuple falls into a currently-violating group (Aux member)
}

// Check answers "would these tuples violate Σ?" without admitting them:
// the two fixed detection queries run over the candidate tuples
// against the flags and Aux(D) of the committed view (see View).
// Check writes nothing — no table, no epoch, no WAL byte: the queries
// run at a private overlay of that view in which the _ins staging
// table holds the candidates (sqldb.Snap.Overlay). It takes no lock a
// writer holds, so it runs at request rate next to updates and never
// waits for one; a check that overlaps a mutating call answers against
// the state from before that call.
//
// The verdict's contract:
//
//   - SV is exact: single-tuple violation is a per-tuple property
//     (Fig. 4, top), so the candidates alone answer it as well as
//     merging would.
//   - MV reports membership in a group that is *currently* violating —
//     the Aux(D) probe the incremental step runs on merged rows. A
//     tuple that would newly tip a clean group into violation (it
//     agrees with exactly one existing tuple on an embedded FD's LHS
//     but differs on the RHS) is not reported; observing that
//     transition requires the Aux recompute in ApplyUpdates.
//
// Check requires the flags and Aux to be current (run BatchDetect once
// after loading). It is safe to call from any number of goroutines,
// concurrently with each other and with the mutating calls.
func (d *Detector) Check(batch *relation.Relation) ([]CheckResult, error) {
	if batch.Schema.Name != d.schema.Name || batch.Schema.Width() != d.schema.Width() {
		return nil, fmt.Errorf("detect: batch schema %s does not match %s", batch.Schema, d.schema)
	}
	out := make([]CheckResult, batch.Len())
	if batch.Len() == 0 {
		return out, nil
	}
	// The 1-based batch position stands in for the RID: the check
	// statements never join the candidates to the data by RID, so
	// colliding with real RIDs is harmless.
	rows := make([]relation.Tuple, batch.Len())
	for i, row := range batch.Rows {
		t := make(relation.Tuple, 0, len(row)+3)
		t = append(t, relation.Int(int64(i+1)))
		t = append(t, row...)
		rows[i] = append(t, relation.Int(0), relation.Int(0))
	}
	view := d.View()
	defer view.Close()
	ov, err := view.Overlay(d.insTable, rows)
	if err != nil {
		return nil, fmt.Errorf("detect: check: %w", err)
	}
	mark := func(q string, set func(r *CheckResult)) error {
		rids, err := d.queryInts(ov, q)
		if err != nil {
			return err
		}
		for _, rid := range rids {
			if rid >= 1 && rid <= int64(len(out)) {
				set(&out[rid-1])
			}
		}
		return nil
	}
	if err := mark(d.stmts.checkSVRIDs, func(r *CheckResult) { r.SV = true }); err != nil {
		return nil, fmt.Errorf("detect: check: %w", err)
	}
	if err := mark(d.stmts.checkMVRIDs, func(r *CheckResult) { r.MV = true }); err != nil {
		return nil, fmt.Errorf("detect: check: %w", err)
	}
	return out, nil
}
