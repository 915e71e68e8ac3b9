package detect

import (
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// View pins the detector's committed read view and returns it; the
// caller must Close it. The committed view is the engine state between
// mutating calls: while LoadData, BatchDetect, ParallelDetect,
// ApplyUpdates (and its wrappers), InsertRaw, DeleteRaw or Install
// runs, View returns the epoch from before the call, and once the call
// has returned, the epoch after it. A reader therefore never sees a
// script half applied — SV set but MV not yet, or a batch merged
// before its Aux recompute — and never waits for a writer either:
// taking the view costs one pin.
//
// Check, Violations, Counts, FlagsByRID and RIDs all read at this
// view. Queries of the returned snapshot go through the engine
// (sqldb.Prepared.QueryAt), not database/sql.
func (d *Detector) View() *sqldb.Snap {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	if d.held != nil {
		return d.held.Clone()
	}
	return d.eng.PinSnapshot()
}

// mutating runs one mutating call. It pins the epoch from before the
// call for View to hand out while fn runs, and releases that pin when
// the last mutating call in flight returns, so no pin outlives it.
func (d *Detector) mutating(fn func() error) error {
	d.viewMu.Lock()
	if d.writers == 0 {
		d.held = d.eng.PinSnapshot()
	}
	d.writers++
	d.viewMu.Unlock()
	defer func() {
		d.viewMu.Lock()
		d.writers--
		var pre *sqldb.Snap
		if d.writers == 0 {
			pre, d.held = d.held, nil
		}
		d.viewMu.Unlock()
		if pre != nil {
			pre.Close()
		}
	}()
	return fn()
}

// queryAt runs a read statement at snapshot s through the engine's
// plan cache.
func (d *Detector) queryAt(s *sqldb.Snap, q string, params ...relation.Value) (*sqldb.Result, error) {
	p, err := d.eng.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.QueryAt(s, params...)
}

// queryInts runs a read statement at s and returns its first column,
// an integer (a RID).
func (d *Detector) queryInts(s *sqldb.Snap, q string, params ...relation.Value) ([]int64, error) {
	res, err := d.queryAt(s, q, params...)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[0].I
	}
	return out, nil
}
