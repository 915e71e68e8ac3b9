package main

import (
	"fmt"
	"os"
	"time"
)

// incWorkload is the paper's maintenance loop (§V-B): the batch
// workload's D and Σ on a durable engine (WAL fsync batched, one commit
// unit per update, a checkpoint every checkpointBytes of update log), one
// goroutine looping ApplyUpdates with 8 fresh inserts and 8 deletes of
// live RIDs, so |D| stays constant. It is the only workload whose loop
// reaches the WAL. Between updates it interleaves checks, violation
// reads and, after every incDetectEvery-th update, a BatchDetect on the
// same engine: the paper's Fig. 6 comparison in one window.
type incWorkload struct {
	h *harness
	libWork

	user int64 // the user bytes of the last window's updates; h.wal has its log
}

func (w *incWorkload) size() int { return batchRows }

func (w *incWorkload) setup() error {
	w.libWork = libWork{h: w.h, rows: batchRows, durable: true, checksPerCycle: incChecksPerCycle}
	return w.libWork.setup()
}

func (w *incWorkload) prepare() error {
	windows := 1
	if w.h.cfg.trace {
		windows = 2
	}
	w.prepareUpdates(windows * w.h.cfg.seconds * updatesPerSecond)
	return nil
}

// loop applies updates until the deadline or until the pre-generated
// batches run out; ops_per_s counts updates per second spent in them.
func (w *incWorkload) loop(tr *tracer, deadline time.Time) (int, time.Duration, error) {
	log0, user0 := w.updLog, w.userBytes
	all0, ckpt0 := w.e.fs.walBytes.Load(), w.e.fs.checkpoints.Load()
	ops := 0
	var busy time.Duration
	for cycle := 0; time.Now().Before(deadline); cycle++ {
		var ok bool
		d := w.measured(tr, func() (d time.Duration) {
			d, ok = w.freshUpdate(tr)
			return d
		})
		if !ok {
			break
		}
		busy += d
		ops++
		sv, mv, total, err := w.e.det.Counts()
		if err != nil {
			return 0, 0, err
		}
		w.reads(tr, cycle, total)
		if cycle%incDetectEvery == 0 {
			if err := w.detectKeeps(tr, sv, mv, total); err != nil {
				return 0, 0, err
			}
		}
		w.sample(tr)
	}
	w.user = w.userBytes - user0
	upd := w.updLog - log0
	w.h.wal = &walSplit{
		UpdateBytes: upd,
		OtherBytes:  w.e.fs.walBytes.Load() - all0 - upd,
		Checkpoints: w.e.fs.checkpoints.Load() - ckpt0,
	}
	return ops, busy, nil
}

// detectKeeps runs an interleaved BatchDetect, which must count what
// the maintained flags count. It recomputes every flag from scratch, so
// it must also leave each row's maintained flags as they were: that
// checks the updates since the last one row by row, which the final
// oracle comparison alone could not, since it sees only the updates
// after the last BatchDetect. Reading the flags is not timed.
func (w *incWorkload) detectKeeps(tr *tracer, sv, mv, total int64) error {
	before, err := w.e.det.FlagsByRID()
	if err != nil {
		return err
	}
	w.detectOp(tr, sv, mv, total)
	after, err := w.e.det.FlagsByRID()
	if err != nil {
		return err
	}
	if d := diffFlags(before, after); d != "" {
		w.h.fail("BatchDetect changed the maintained flags: %s", d)
	}
	return nil
}

func (w *incWorkload) dropInputs() { w.ins = nil }

func (w *incWorkload) layers(tr *tracer, win windowStats, out map[string]float64) error {
	if err := w.libLayers(tr, out); err != nil {
		return err
	}
	out["wal.bytes_per_op"] = float64(w.h.wal.UpdateBytes) / float64(win.ops)
	out["wal.bytes_per_user_byte"] = float64(w.h.wal.UpdateBytes) / float64(w.user)
	out["wal.checkpoints"] = float64(w.h.wal.Checkpoints)
	return serverProbe(w.h, tr, out)
}

// finish restarts the engine from its WAL directory: every
// acknowledged update must survive, so the recovered flags must still
// equal the oracle's.
func (w *incWorkload) finish(tr *tracer, out map[string]float64) error {
	dir := w.e.walDir
	t0 := time.Now()
	e, err := w.e.reopen()
	if err != nil {
		w.e = nil
		os.RemoveAll(dir)
		return fmt.Errorf("restart: %w", err)
	}
	if tr != nil {
		out["wal.recover_ms"] = ms(time.Since(t0))
	}
	w.e = e
	if err := checkFlags(e.det, w.want); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	if live := e.eng.Stats().LiveEpochs; live != 1 {
		return fmt.Errorf("after restart: %d live epochs, want 1", live)
	}
	return nil
}
