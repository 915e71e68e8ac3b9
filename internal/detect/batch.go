package detect

import (
	"fmt"
	"time"
)

// BatchStats reports one BatchDetect run.
type BatchStats struct {
	SV, MV, Total int64
	Elapsed       time.Duration
}

// BatchDetect runs the paper's static detection (§V-A): reset the
// flags, flag single-tuple violations with the Qsv update, materialize
// the embedded-FD violation patterns into Aux(D) with Qmv, and flag the
// matching tuples. The statement count is fixed — two passes over D —
// regardless of |Σ|, pattern-tuple counts or set sizes. The whole
// sequence is submitted as one pipelined script (a single prepared
// driver round trip); the engine executes the statements in order.
func (d *Detector) BatchDetect() (BatchStats, error) {
	var st BatchStats
	err := d.mutating(func() (err error) {
		start := time.Now()
		if _, err := d.db.Exec(d.stmts.batchScript); err != nil {
			return fmt.Errorf("detect: batch: %w", err)
		}
		st, err = d.headStats(start)
		return err
	})
	return st, err
}

// headStats counts the flags a detect run just set. It reads the
// engine's current epoch: the committed view still shows the state
// from before the run.
func (d *Detector) headStats(start time.Time) (BatchStats, error) {
	s := d.eng.PinSnapshot()
	defer s.Close()
	sv, mv, total, err := d.countsAt(s)
	if err != nil {
		return BatchStats{}, err
	}
	return BatchStats{SV: sv, MV: mv, Total: total, Elapsed: time.Since(start)}, nil
}
