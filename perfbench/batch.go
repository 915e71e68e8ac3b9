package main

import (
	"time"

	"ecfd/internal/relation"
)

// batchWorkload is the paper's static loop (Fig. 5a): a volatile
// engine at |D| = 20k, one goroutine looping BatchDetect. Its time goes
// to sqldb scans, joins, DISTINCT and grouping, with no HTTP or WAL
// work, so an executor change shows here. Between BatchDetects it
// interleaves checks, violation reads and, before every
// batchPairEvery-th run, an update followed by its undo, which leaves
// D holding the same tuples: every BatchDetect must count what the
// set-up's first one counted.
type batchWorkload struct {
	h *harness
	libWork
}

func (w *batchWorkload) size() int { return batchRows }

func (w *batchWorkload) setup() error {
	w.libWork = libWork{h: w.h, rows: batchRows, checksPerCycle: batchChecksPerCycle}
	return w.libWork.setup()
}

func (w *batchWorkload) prepare() error {
	windows := 1
	if w.h.cfg.trace {
		windows = 2
	}
	w.prepareUpdates(windows * w.h.cfg.seconds * updatesPerSecond / batchPairEvery)
	return nil
}

// loop repeats BatchDetect; ops_per_s counts BatchDetects per second
// spent in them.
func (w *batchWorkload) loop(tr *tracer, deadline time.Time) (int, time.Duration, error) {
	ops := 0
	var busy time.Duration
	for cycle := 0; time.Now().Before(deadline); cycle++ {
		if cycle%batchPairEvery == 0 {
			w.updatePair(tr)
		}
		busy += w.measured(tr, func() time.Duration {
			return w.detectOp(tr, w.first.SV, w.first.MV, w.first.Total)
		})
		ops++
		w.reads(tr, cycle, w.first.Total)
		w.sample(tr)
	}
	return ops, busy, nil
}

// updatePair applies a fresh update, then its inverse: the inserted
// rows are deleted again and the deleted tuples come back under new
// RIDs. Once the batches are used up it does nothing.
func (w *batchWorkload) updatePair(tr *tracer) {
	ins := w.nextInserts()
	if ins == nil {
		return
	}
	del := w.live.pick(opTuples)
	back := relation.New(ins.Schema)
	for _, rid := range del {
		back.Rows = append(back.Rows, w.m.rows[rid])
	}
	rids, _ := w.updateOp(tr, ins, del)
	if rids == nil {
		w.live.add(del...)
		return
	}
	again, _ := w.updateOp(tr, back, rids)
	w.live.add(again...)
}

func (w *batchWorkload) dropInputs() { w.ins = nil }

func (w *batchWorkload) layers(tr *tracer, _ windowStats, out map[string]float64) error {
	if err := w.libLayers(tr, out); err != nil {
		return err
	}
	if err := serverProbe(w.h, tr, out); err != nil {
		return err
	}
	return walProbe(w.h, w.rows, out)
}

func (w *batchWorkload) finish(*tracer, map[string]float64) error { return nil }
