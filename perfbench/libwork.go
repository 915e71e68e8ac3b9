package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ecfd/internal/detect"
	"ecfd/internal/relation"
)

// libWork is the part batch and incremental share: a detector reached
// by library calls, the mirror of D it must agree with, and the ops.
type libWork struct {
	h              *harness
	rows           int
	durable        bool
	checksPerCycle int

	e     *libEngine
	m     *mirror
	first detect.BatchStats // the set-up's BatchDetect
	live  *liveSet

	checks  []checkBatch
	ins     []*relation.Relation // pre-generated ΔD⁺ batches
	nextIns int

	want       map[int64][2]bool // oracle flags at the last verify
	userBytes  int64             // user data in the updates applied so far
	updLog     int64             // durable engines: WAL bytes the updates appended
	sinceCkpt  int64             // durable engines: update WAL bytes since the last checkpoint
	retiredMax int64             // traced windows: max retired bytes seen
	cost       opCost            // traced windows: what the loop ops cost
}

// opCost accumulates what a traced window's loop ops cost the Go
// runtime and the engine, measured around each op alone so the
// interleaved calls do not count.
type opCost struct {
	n, allocs, bytes, pauseNs, epochs uint64
}

// costLayers reports the per-op runtime and epoch costs.
func costLayers(c opCost, out map[string]float64) {
	n := float64(c.n)
	out["runtime.allocs_per_op"] = float64(c.allocs) / n
	out["runtime.alloc_bytes_per_op"] = float64(c.bytes) / n
	out["runtime.gc_pause_ms_per_op"] = float64(c.pauseNs) / 1e6 / n
	out["sqldb.epochs_per_op"] = float64(c.epochs) / n
}

// measured runs one loop op; in a traced window it also adds the op's
// allocations, GC pause and published epochs to w.cost.
func (w *libWork) measured(tr *tracer, op func() time.Duration) time.Duration {
	if tr == nil {
		return op()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	seq0 := w.e.eng.Stats().EpochSeq
	d := op()
	seq1 := w.e.eng.Stats().EpochSeq
	runtime.ReadMemStats(&m1)
	w.cost.n++
	w.cost.allocs += m1.Mallocs - m0.Mallocs
	w.cost.bytes += m1.TotalAlloc - m0.TotalAlloc
	w.cost.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	w.cost.epochs += seq1 - seq0
	return d
}

func (w *libWork) setup() error {
	dir := ""
	if w.durable {
		var err error
		if dir, err = scratchDir(w.h.cfg.out, "wal-"); err != nil {
			return err
		}
	}
	e, data, st, err := setupEngine(w.rows, w.h.cfg.seed, dir)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return err
	}
	w.e, w.first = e, st
	w.m = newMirror(data)
	return nil
}

// prepare generates the check batches, and n ΔD⁺ batches with a
// seeded delete picker over RIDs 1..|D|.
func (w *libWork) prepareUpdates(n int) {
	w.checks = makeChecks(w.h.cfg.seed)
	w.ins = makeInserts(w.rows, w.h.cfg.seed, 0, n)
	w.nextIns = 0
	w.live = newLiveSet(w.h.cfg.seed + 1)
	for rid := int64(1); rid <= int64(w.rows); rid++ {
		w.live.add(rid)
	}
}

func (w *libWork) dropInputs() { w.ins = nil }

func (w *libWork) close() {
	if w.e == nil {
		return
	}
	w.e.close()
	if w.e.walDir != "" {
		os.RemoveAll(w.e.walDir)
	}
	w.e = nil
}

func (w *libWork) engineStats() (uint64, int, int64, error) {
	st := w.e.eng.Stats()
	return st.EpochSeq, st.LiveEpochs, st.RetiredBytes, nil
}

// sample records the retired bytes after an op of a traced window.
func (w *libWork) sample(tr *tracer) {
	if tr == nil {
		return
	}
	if b := w.e.eng.Stats().RetiredBytes; b > w.retiredMax {
		w.retiredMax = b
	}
}

// verify compares every row's flags with the oracle over the mirror.
func (w *libWork) verify(stage string) error {
	want, err := w.m.oracleFlags(w.e.det.Sigma())
	if err != nil {
		return err
	}
	w.want = want
	if err := checkFlags(w.e.det, want); err != nil {
		return fmt.Errorf("%s: %w", stage, err)
	}
	return nil
}

// detectOp runs one BatchDetect, which must count what the oracle
// counts.
func (w *libWork) detectOp(tr *tracer, wantSV, wantMV, wantTotal int64) time.Duration {
	sp := tr.begin("detect.BatchDetect", tr.req(), 0)
	t0 := time.Now()
	st, err := w.e.det.BatchDetect()
	d := time.Since(t0)
	sp.end(0)
	switch {
	case err != nil:
		w.h.fail("BatchDetect: %v", err)
	case st.SV != wantSV || st.MV != wantMV || st.Total != wantTotal:
		w.h.fail("BatchDetect counted (SV %d, MV %d, total %d), want (%d, %d, %d)",
			st.SV, st.MV, st.Total, wantSV, wantMV, wantTotal)
	default:
		w.h.record("detect", d)
	}
	return d
}

// nextInserts hands out the next pre-generated ΔD⁺ batch, or nil when
// they are used up.
func (w *libWork) nextInserts() *relation.Relation {
	if w.nextIns >= len(w.ins) {
		return nil
	}
	w.nextIns++
	return w.ins[w.nextIns-1]
}

// updateOp applies ins and deletes del, keeping the mirror in step. On
// a durable engine the update whose log bytes reach checkpointBytes
// also takes a checkpoint, inside its timing. It returns the RIDs the
// inserted rows got.
func (w *libWork) updateOp(tr *tracer, ins *relation.Relation, del []int64) ([]int64, time.Duration) {
	var log0 int64
	if w.e.fs != nil {
		log0 = w.e.fs.walBytes.Load()
	}
	sp := tr.begin("detect.ApplyUpdates", tr.req(), 0)
	t0 := time.Now()
	rids, _, err := w.e.det.ApplyUpdates(ins, del)
	if err == nil && w.e.fs != nil {
		grown := w.e.fs.walBytes.Load() - log0
		w.updLog += grown
		if w.sinceCkpt += grown; w.sinceCkpt >= checkpointBytes {
			err = w.e.eng.Checkpoint()
			w.sinceCkpt = 0
		}
	}
	d := time.Since(t0)
	sp.end(0)
	if err != nil {
		w.h.fail("ApplyUpdates: %v", err)
		return nil, d
	}
	w.h.record("update", d)
	w.m.delete(del)
	w.m.insert(rids, ins)
	w.userBytes += userBytes(ins, len(del))
	return rids, d
}

// freshUpdate inserts the next ΔD⁺ batch and deletes as many random
// live RIDs. It reports false when the batches are used up.
func (w *libWork) freshUpdate(tr *tracer) (time.Duration, bool) {
	ins := w.nextInserts()
	if ins == nil {
		return 0, false
	}
	del := w.live.pick(opTuples)
	rids, d := w.updateOp(tr, ins, del)
	if rids == nil {
		w.live.add(del...)
	}
	w.live.add(rids...)
	return d, true
}

// checkOp checks batch i and compares the SV verdicts with the oracle.
func (w *libWork) checkOp(tr *tracer, i int) {
	cb := w.checks[i%len(w.checks)]
	sp := tr.begin("detect.Check", tr.req(), 0)
	t0 := time.Now()
	res, err := w.e.det.Check(cb.rel)
	d := time.Since(t0)
	sp.end(0)
	if err != nil {
		w.h.fail("Check: %v", err)
		return
	}
	if len(res) != len(cb.sv) {
		w.h.fail("Check batch %d: %d verdicts for %d tuples", i%len(w.checks), len(res), len(cb.sv))
		return
	}
	for j, r := range res {
		if r.SV != cb.sv[j] {
			w.h.fail("Check batch %d tuple %d: SV %v, oracle %v", i%len(w.checks), j, r.SV, cb.sv[j])
			return
		}
	}
	w.h.record("check", d)
}

// violationsOp reads the violation set, which must hold total rows.
func (w *libWork) violationsOp(tr *tracer, total int64) {
	sp := tr.begin("detect.Violations", tr.req(), 0)
	t0 := time.Now()
	vio, err := w.e.det.Violations()
	d := time.Since(t0)
	sp.end(0)
	switch {
	case err != nil:
		w.h.fail("Violations: %v", err)
	case int64(vio.Len()) != total:
		w.h.fail("Violations returned %d rows, want %d", vio.Len(), total)
	default:
		w.h.record("violations", d)
	}
}

// reads issues one cycle's interleaved checks and violation reads;
// the violation set must hold total rows.
func (w *libWork) reads(tr *tracer, cycle int, total int64) {
	for i := 0; i < w.checksPerCycle; i++ {
		w.checkOp(tr, cycle*w.checksPerCycle+i)
	}
	for i := 0; i < violationsPerCycle; i++ {
		w.violationsOp(tr, total)
	}
}

// libLayers fills the detect and sqldb metrics measured on the
// workload's own detector: spans of the window and the probes, plus
// the statement-by-statement and Counts probes.
func (w *libWork) libLayers(tr *tracer, out map[string]float64) error {
	if err := stmtProbe(w.e, tr, out); err != nil {
		return err
	}
	if err := countsProbe(w.e, tr, out); err != nil {
		return err
	}
	spanLayers(tr, out)
	out["client.check_p99_ms"] = quantile(durations(tr.named("detect.Check")), 0.99)
	out["sqldb.retired_bytes_max"] = float64(w.retiredMax)
	costLayers(w.cost, out)
	return nil
}

// spanLayers derives the detect-layer metrics from library-call spans.
func spanLayers(tr *tracer, out map[string]float64) {
	out["detect.batch_detect_ms"] = median(durations(tr.named("detect.BatchDetect")))
	up := durations(tr.named("detect.ApplyUpdates"))
	out["detect.apply_updates_ms"] = median(up)
	out["detect.apply_updates_p90_ms"] = quantile(up, 0.9)
	out["detect.check_ms"] = median(durations(tr.named("detect.Check")))
	out["detect.violations_ms"] = median(durations(tr.named("detect.Violations")))
}
