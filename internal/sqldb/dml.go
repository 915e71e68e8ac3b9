package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"ecfd/internal/relation"
)

// DML statements compile into reusable plans (the prepared-statement
// and plan-cache layers hold them across executions) and run in a
// separate phase, mirroring the compile/exec split of SELECT. All DML
// executes under db.mu against the writer's in-progress epoch
// (db.curW): it evaluates against the epoch's frozen row slices, then
// applies through a copy-on-write transition (applyAppend /
// applyUpdate / applyDelete) that forks a new epoch off to the side.
// Concurrent readers keep scanning their pinned epochs untouched; the
// two-phase evaluate/apply split below is about the statement seeing
// its own target consistently.

// coerce converts v to the column kind, erring on lossy mismatches.
func coerce(v relation.Value, k relation.Kind, col string) (relation.Value, error) {
	if v.IsNull() || v.K == k {
		return v, nil
	}
	switch k {
	case relation.KindFloat:
		if v.K == relation.KindInt || v.K == relation.KindBool {
			return relation.Float(v.AsFloat()), nil
		}
	case relation.KindInt:
		if v.K == relation.KindBool {
			return relation.Int(v.I), nil
		}
		if v.K == relation.KindFloat && v.F == float64(int64(v.F)) {
			return relation.Int(int64(v.F)), nil
		}
	case relation.KindBool:
		if v.K == relation.KindInt && (v.I == 0 || v.I == 1) {
			return relation.Bool(v.I == 1), nil
		}
	case relation.KindText:
		// Text columns accept anything printable; this mirrors the lax
		// typing of the CSV-shaped experimental data.
		return relation.Text(v.String()), nil
	}
	return relation.Null(), fmt.Errorf("sql: cannot store %s value %s in %s column %s", v.K, v, k, col)
}

// --- INSERT ---

type insertPlan struct {
	t     *Table
	table string
	pos   []int // schema position per inserted column
	query *compiledSelect
	rows  [][]compiledExpr
}

func (db *DB) compileInsert(ins *Insert, ep *epoch) (*insertPlan, error) {
	t, err := ep.table(ins.Table)
	if err != nil {
		return nil, err
	}
	p := &insertPlan{t: t, table: ins.Table}

	// Map the column list (or the full schema) to schema positions.
	if len(ins.Cols) == 0 {
		for i := range t.Schema.Attrs {
			p.pos = append(p.pos, i)
		}
	} else {
		for _, cname := range ins.Cols {
			j := t.Schema.Index(cname)
			if j < 0 {
				return nil, fmt.Errorf("sql: no column %s in %s", cname, ins.Table)
			}
			p.pos = append(p.pos, j)
		}
	}

	if ins.Query != nil {
		c := &compiler{db: db, ep: ep}
		if p.query, err = c.compileSubSelect(ins.Query); err != nil {
			return nil, err
		}
		return p, nil
	}
	c := &compiler{db: db, ep: ep}
	p.rows = make([][]compiledExpr, len(ins.Rows))
	for ri, exprRow := range ins.Rows {
		p.rows[ri] = make([]compiledExpr, len(exprRow))
		for i, e := range exprRow {
			if p.rows[ri][i], err = c.compileExpr(e); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

func (db *DB) runInsert(p *insertPlan, params []relation.Value) (int64, error) {
	if err := db.writable(); err != nil {
		return 0, err
	}
	t := p.t
	build := func(vals []relation.Value) (relation.Tuple, error) {
		if len(vals) != len(p.pos) {
			return nil, fmt.Errorf("sql: INSERT into %s: %d values for %d columns", p.table, len(vals), len(p.pos))
		}
		row := make(relation.Tuple, t.Schema.Width())
		for i, j := range p.pos {
			v, err := coerce(vals[i], t.Schema.Attrs[j].Kind, t.Schema.Attrs[j].Name)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		return row, nil
	}

	var newRows []relation.Tuple
	en := newEnv(db, db.curW, params)
	if p.query != nil {
		rows, err := p.query.exec(en)
		if err != nil {
			return 0, err
		}
		for _, r := range rows {
			row, err := build(r)
			if err != nil {
				return 0, err
			}
			newRows = append(newRows, row)
		}
	} else {
		vals := make([]relation.Value, 0, len(p.pos))
		for _, exprRow := range p.rows {
			vals = vals[:0]
			for _, ce := range exprRow {
				v, err := ce(en)
				if err != nil {
					return 0, err
				}
				vals = append(vals, v)
			}
			row, err := build(vals)
			if err != nil {
				return 0, err
			}
			newRows = append(newRows, row)
		}
	}

	if err := db.logInsert(t.Name, newRows); err != nil {
		return 0, err
	}
	db.backupForTx(t)
	db.applyAppend(t, newRows)
	return int64(len(newRows)), nil
}

func (db *DB) execInsert(ins *Insert, params []relation.Value) (int64, error) {
	p, err := db.compileInsert(ins, db.curW)
	if err != nil {
		return 0, err
	}
	return db.runInsert(p, params)
}

// --- UPDATE ---

type setter struct {
	col int
	ex  compiledExpr
	// isConst marks a literal assignment (SET SV = 0); the coerced
	// value is computed at compile time and shared by every changed
	// row, so flag resets do not evaluate or allocate per row.
	isConst  bool
	constVal relation.Value
}

type updatePlan struct {
	rowSel
	setters []setter
}

// rowSel is the row selection of an UPDATE or DELETE: the WHERE
// closure over the target plus the two planned forms of the same
// filter. Running a planned form and collecting the distinct target
// row positions is equivalent to filtering every row with the closure.
type rowSel struct {
	t     *Table
	where compiledExpr
	// semi, when non-nil, is the joint semi-join select over
	// [target] + EXISTS-subquery sources: it lets the planner drive the
	// join from the small side (the paper's pattern tables, the
	// detector's ΔD staging tables) instead of probing the EXISTS once
	// per target row.
	semi *compiledSelect
	// filterSel is the planned single-source select over the target with
	// the same WHERE: when the semi-join path is not taken, the row
	// selection runs through the batched executor (kernel filters over
	// the column vectors, e.g. the detector's RID-slice and MV = 0
	// guards) instead of the per-row closure loop. nil when the WHERE
	// does not plan; the closure loop remains the fallback.
	filterSel *compiledSelect
}

// disableSemiJoinUpdate / forceSemiJoinUpdate are test hooks for the
// differential suite; production code leaves both false. They steer
// DELETE's row selection as well as UPDATE's.
var (
	disableSemiJoinUpdate = false
	forceSemiJoinUpdate   = false
)

// compileRowSel compiles the WHERE of an UPDATE or DELETE on table
// (alias optional) with c, whose single scope is the target, and
// plans its semi-join and single-source forms.
func (db *DB) compileRowSel(c *compiler, t *Table, table, alias string, where Expr, ep *epoch) (rowSel, error) {
	rs := rowSel{t: t}
	if where == nil {
		return rs, nil
	}
	var err error
	if rs.where, err = c.compileExpr(where); err != nil {
		return rs, err
	}
	rs.semi = db.trySemiJoin(table, alias, where, ep)
	synth := &Select{
		Exprs: []SelectExpr{{Expr: &Literal{Val: relation.Int(1)}}},
		From:  []TableRef{{Table: table, Alias: alias}},
		Where: where,
	}
	fc := &compiler{db: db, ep: ep}
	if cs, err := fc.compileSubSelect(synth); err == nil && cs.planOK && !cs.grouped {
		rs.filterSel = cs
	}
	return rs, nil
}

func (db *DB) compileUpdate(up *Update, ep *epoch) (*updatePlan, error) {
	t, err := ep.table(up.Table)
	if err != nil {
		return nil, err
	}
	name := up.Alias
	if name == "" {
		name = up.Table
	}
	c := &compiler{db: db, ep: ep, scopes: []*scopeInfo{
		{sources: []sourceInfo{{name: name, cols: t.Schema.Names()}}},
	}}

	p := &updatePlan{}
	if p.rowSel, err = db.compileRowSel(c, t, up.Table, up.Alias, up.Where, ep); err != nil {
		return nil, err
	}
	p.setters = make([]setter, len(up.Set))
	for i, a := range up.Set {
		j := t.Schema.Index(a.Column)
		if j < 0 {
			return nil, fmt.Errorf("sql: no column %s in %s", a.Column, up.Table)
		}
		ex, err := c.compileExpr(a.Value)
		if err != nil {
			return nil, err
		}
		p.setters[i] = setter{col: j, ex: ex}
		if lit, ok := a.Value.(*Literal); ok {
			if cv, err := coerce(lit.Val, t.Schema.Attrs[j].Kind, t.Schema.Attrs[j].Name); err == nil {
				p.setters[i].isConst = true
				p.setters[i].constVal = cv
			}
		}
	}
	return p, nil
}

// trySemiJoin builds the joint semi-join select for an UPDATE or
// DELETE whose WHERE contains a plain EXISTS over base tables. Returns
// nil when the shape does not qualify; the row-filter path then
// applies.
func (db *DB) trySemiJoin(table, alias string, where Expr, ep *epoch) *compiledSelect {
	name := alias
	if name == "" {
		name = table
	}
	var conjs []Expr
	splitConjuncts(where, &conjs)
	exIdx := -1
	var sub *Select
	for i, cj := range conjs {
		ex, ok := cj.(*Exists)
		if !ok || ex.Neg || !semiJoinable(ex.Sub) {
			continue
		}
		collides := false
		for _, tr := range ex.Sub.From {
			if strings.EqualFold(tr.Name(), name) {
				collides = true
				break
			}
		}
		if collides {
			continue
		}
		exIdx, sub = i, ex.Sub
		break
	}
	if exIdx < 0 {
		return nil
	}
	joint := sub.Where
	for i, cj := range conjs {
		if i == exIdx {
			continue
		}
		if joint == nil {
			joint = cj
		} else {
			joint = &Binary{Op: "AND", L: joint, R: cj}
		}
	}
	synth := &Select{
		Exprs: []SelectExpr{{Expr: &Literal{Val: relation.Int(1)}}},
		From:  append([]TableRef{{Table: table, Alias: alias}}, sub.From...),
		Where: joint,
	}
	c := &compiler{db: db, ep: ep}
	cs, err := c.compileSubSelect(synth)
	if err != nil || !cs.planOK {
		// Merging scopes can introduce ambiguities the nested form did
		// not have (unqualified names resolving into both scopes); the
		// row-filter path stays available.
		return nil
	}
	return cs
}

// semiJoinable reports whether an EXISTS subquery can be folded into a
// joint join: base tables only, no grouping/aggregation/limit (those
// change emptiness semantics or row multiplicity guarantees).
func semiJoinable(sub *Select) bool {
	if len(sub.From) == 0 || len(sub.GroupBy) > 0 || sub.Having != nil ||
		sub.Limit != nil || sub.Offset != nil || selectHasAggregate(sub) {
		return false
	}
	for _, tr := range sub.From {
		if tr.Sub != nil {
			return false
		}
	}
	return true
}

// useSemiJoin reports whether the statement would take the semi-join
// path given the epoch's table sizes: worth it when a subquery source
// is meaningfully smaller than the target, so the join is driven from
// that side instead of probing the EXISTS once per target row.
func (rs *rowSel) useSemiJoin(ep *epoch) bool {
	if rs.semi == nil || DisablePlanner || disableSemiJoinUpdate {
		return false
	}
	target := len(ep.tds[rs.t].rows)
	minSub := target + 1
	for _, src := range rs.semi.sources[1:] {
		if n := len(ep.tds[src.table].rows); n < minSub {
			minSub = n
		}
	}
	return forceSemiJoinUpdate || minSub*4 <= target
}

// planned returns the select the row selection runs through at ep —
// the semi-join or the single-source batched scan — or nil for the
// per-row closure loop. Shared by execution (against db.curW) and
// EXPLAIN (against a pinned snapshot), so the reported access path is
// the one that actually executes.
func (rs *rowSel) planned(ep *epoch) (sel *compiledSelect, semi bool) {
	switch {
	case rs.useSemiJoin(ep):
		return rs.semi, true
	case rs.filterSel != nil && !DisablePlanner:
		return rs.filterSel, false
	}
	return nil, false
}

// selectRows returns the ascending, distinct positions of the target
// rows the WHERE selects in the writer's epoch. The planned forms may
// visit rows in any order (and the semi-join once per matching
// subquery row), so their positions are deduped and sorted; the
// closure loop yields them in order.
func (rs *rowSel) selectRows(db *DB, params []relation.Value) ([]int, error) {
	rows := db.curW.tds[rs.t].rows
	if sel, _ := rs.planned(db.curW); sel != nil {
		matched := make(map[int]bool)
		err := sel.semiScan(newEnv(db, db.curW, params), func(idx []int) error {
			matched[idx[0]] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
		ris := make([]int, 0, len(matched))
		for ri := range matched {
			ris = append(ris, ri)
		}
		sort.Ints(ris)
		return ris, nil
	}
	var ris []int
	if rs.where == nil {
		ris = make([]int, len(rows))
		for ri := range ris {
			ris[ri] = ri
		}
		return ris, nil
	}
	en := newEnv(db, db.curW, params)
	en.frames = append(en.frames, frame{rows: make([]relation.Tuple, 1)})
	fr := &en.frames[0]
	for ri, row := range rows {
		fr.rows[0] = row
		v, err := rs.where(en)
		if err != nil {
			return nil, err
		}
		if v.Truth() {
			ris = append(ris, ri)
		}
	}
	return ris, nil
}

// describe renders the row-selection strategy for EXPLAIN; verb names
// the statement for the unfiltered case.
func (rs *rowSel) describe(ep *epoch, verb string) []string {
	sel, semi := rs.planned(ep)
	switch {
	case sel != nil:
		head := "planned row selection:"
		if semi {
			head = "semi-join row selection:"
		}
		out := []string{head}
		for _, line := range sel.describePlan(ep) {
			out = append(out, "  "+line)
		}
		return out
	case rs.where == nil:
		return []string{"full table " + verb + " (no filter)"}
	}
	return []string{"full scan with row filter"}
}

func (db *DB) runUpdate(p *updatePlan, params []relation.Value) (int64, error) {
	if err := db.writable(); err != nil {
		return 0, err
	}
	t := p.t
	// Two phases: evaluate against the unmodified epoch, then apply a
	// copy-on-write transition, so the statement sees a consistent
	// snapshot of its own target. The row selection runs planned where
	// it can: the semi-join (the target joins the EXISTS sources,
	// driven from the small side) or the single-source batched scan
	// (simple WHERE conjuncts run as kernel filters).
	ris, err := p.selectRows(db, params)
	if err != nil {
		return 0, err
	}
	if len(ris) == 0 {
		return 0, nil
	}
	tRows := db.curW.tds[t].rows
	en := newEnv(db, db.curW, params)
	en.frames = append(en.frames, frame{rows: make([]relation.Tuple, 1)})
	fr := &en.frames[0]
	allConst := true
	for _, s := range p.setters {
		if !s.isConst {
			allConst = false
			break
		}
	}
	var constVals []relation.Value
	if allConst {
		constVals = make([]relation.Value, len(p.setters))
		for i, s := range p.setters {
			constVals[i] = s.constVal
		}
	}
	vals := make([][]relation.Value, len(ris))
	for k, ri := range ris {
		if allConst {
			vals[k] = constVals
			continue
		}
		fr.rows[0] = tRows[ri]
		row := make([]relation.Value, len(p.setters))
		for i, s := range p.setters {
			if s.isConst {
				row[i] = s.constVal
				continue
			}
			v, err := s.ex(en)
			if err != nil {
				return 0, err
			}
			if row[i], err = coerce(v, t.Schema.Attrs[s.col].Kind, t.Schema.Attrs[s.col].Name); err != nil {
				return 0, err
			}
		}
		vals[k] = row
	}

	// applyUpdate forks the next epoch copy-on-write: changed tuples are
	// cloned and patched, shared structures (column vectors, indexes)
	// fork only where the assigned columns overlap — so a flag update
	// never touches a RID index, mirroring the old incremental
	// maintenance. ris is ascending (selectRows).
	setCols := make([]int, len(p.setters))
	for i, s := range p.setters {
		setCols[i] = s.col
	}
	if err := db.logUpdate(t.Name, ris, setCols, vals); err != nil {
		return 0, err
	}
	db.backupForTx(t)
	db.applyUpdate(t, ris, setCols, vals)
	return int64(len(ris)), nil
}

func (db *DB) execUpdate(up *Update, params []relation.Value) (int64, error) {
	p, err := db.compileUpdate(up, db.curW)
	if err != nil {
		return 0, err
	}
	return db.runUpdate(p, params)
}

// --- DELETE ---

type deletePlan struct {
	rowSel
}

func (db *DB) compileDelete(del *Delete, ep *epoch) (*deletePlan, error) {
	t, err := ep.table(del.Table)
	if err != nil {
		return nil, err
	}
	name := del.Alias
	if name == "" {
		name = del.Table
	}
	c := &compiler{db: db, ep: ep, scopes: []*scopeInfo{
		{sources: []sourceInfo{{name: name, cols: t.Schema.Names()}}},
	}}
	p := &deletePlan{}
	if p.rowSel, err = db.compileRowSel(c, t, del.Table, del.Alias, del.Where, ep); err != nil {
		return nil, err
	}
	return p, nil
}

func (db *DB) runDelete(p *deletePlan, params []relation.Value) (int64, error) {
	if err := db.writable(); err != nil {
		return 0, err
	}
	t := p.t
	dropped, err := p.selectRows(db, params)
	if err != nil {
		return 0, err
	}
	if len(dropped) == 0 {
		return 0, nil
	}
	if err := db.logDelete(t.Name, dropped); err != nil {
		return 0, err
	}
	db.backupForTx(t)
	// dropped is ascending (selectRows); applyDelete compacts the rows
	// copy-on-write and filters/remaps built indexes instead of
	// rebuilding (a one-row DELETE costs one pass of integer rewrites,
	// no key encoding or re-sort).
	db.applyDelete(t, dropped)
	return int64(len(dropped)), nil
}

func (db *DB) execDelete(del *Delete, params []relation.Value) (int64, error) {
	p, err := db.compileDelete(del, db.curW)
	if err != nil {
		return 0, err
	}
	return db.runDelete(p, params)
}
