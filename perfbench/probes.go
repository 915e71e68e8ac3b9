package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// Layer probes: fixed measurements a traced run makes after its window
// for the layers the workload's own loop does not isolate.

// stmtProbe runs the statements of BatchDetect one at a time on the
// engine, in script order, and times each. BatchDetect runs the same
// statements as one pipelined database/sql script plus Counts; the
// difference is detect.batch_residual_ms. The flags the statements
// leave must equal BatchDetect's.
func stmtProbe(e *libEngine, tr *tracer, out map[string]float64) error {
	_, qsvUpdate, qmvInsert, mvUpdate := e.det.SQL()
	aux := strings.Fields(qmvInsert)[2] // INSERT INTO <aux> SELECT ...
	steps := []struct{ name, text string }{
		{"reset_flags", fmt.Sprintf("UPDATE %s SET %s = 0, %s = 0", e.det.DataTable(), detect.ColSV, detect.ColMV)},
		{"qsv_update", qsvUpdate},
		{"", "TRUNCATE TABLE " + aux},
		{"qmv_insert", qmvInsert},
		{"mv_update", mvUpdate},
	}
	const rounds = 3
	var batch []time.Duration
	per := make(map[string][]time.Duration)
	rows := make(map[string]int64)
	for r := 0; r < rounds; r++ {
		sp := tr.begin("detect.BatchDetect", tr.req(), 0)
		t0 := time.Now()
		_, err := e.det.BatchDetect()
		batch = append(batch, time.Since(t0))
		sp.end(0)
		if err != nil {
			return err
		}
		want, err := e.det.FlagsByRID()
		if err != nil {
			return err
		}
		req := tr.req()
		for _, s := range steps {
			sp := tr.begin("sqldb.stmt."+s.name, req, 0)
			t0 := time.Now()
			n, err := e.eng.Exec(s.text)
			d := time.Since(t0)
			sp.end(0)
			if err != nil {
				return fmt.Errorf("statement %s: %w", s.name, err)
			}
			if s.name != "" {
				per[s.name] = append(per[s.name], d)
				rows[s.name] = n
			}
		}
		if err := checkFlags(e.det, want); err != nil {
			return fmt.Errorf("statements run one at a time: %w", err)
		}
	}
	sum := 0.0
	for _, s := range steps {
		if s.name == "" {
			continue
		}
		m := median(per[s.name])
		out["sqldb.stmt."+s.name+"_ms"] = m
		out["sqldb.stmt."+s.name+".rows"] = float64(rows[s.name])
		sum += m
	}
	out["detect.batch_residual_ms"] = median(batch) - sum
	return nil
}

// countsProbe times Counts, the read BatchDetect ends with.
func countsProbe(e *libEngine, tr *tracer, out map[string]float64) error {
	var ds []time.Duration
	for i := 0; i < 20; i++ {
		sp := tr.begin("detect.Counts", tr.req(), 0)
		t0 := time.Now()
		_, _, _, err := e.det.Counts()
		ds = append(ds, time.Since(t0))
		sp.end(0)
		if err != nil {
			return err
		}
	}
	out["detect.counts_ms"] = median(ds)
	return nil
}

// microProbes measures the fixed per-call costs of the SQL layers on a
// small volatile engine: parsing the largest detection statement,
// a plan-cache hit, the database/sql + driver hop, and a snapshot pin.
func microProbes(out map[string]float64) error {
	e, err := openEngine("")
	if err != nil {
		return err
	}
	defer e.close()
	for _, q := range []string{"CREATE TABLE probe (k INTEGER, v INTEGER)", "INSERT INTO probe VALUES (1, 0)"} {
		if _, err := e.eng.Exec(q); err != nil {
			return err
		}
	}
	det, err := detect.New(e.db, gen.Schema(), gen.Constraints())
	if err != nil {
		return err
	}
	_, _, qmvInsert, _ := det.SQL()

	ds, err := timed(200, func(int) error { _, err := sqldb.Parse(qmvInsert); return err })
	if err != nil {
		return err
	}
	out["sqldb.parse_us"] = median(ds) * 1e3

	if _, err := e.eng.Prepare(qmvInsert); err != nil {
		return err
	}
	ds, err = timed(2000, func(int) error { _, err := e.eng.Prepare(qmvInsert); return err })
	if err != nil {
		return err
	}
	out["sqldb.prepare_cached_us"] = median(ds) * 1e3

	// The same one-row UPDATE through database/sql and directly on the
	// engine, alternating so drift hits both sides alike.
	const upd = "UPDATE probe SET v = ? WHERE k = 1"
	var viaSQL, direct []time.Duration
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if _, err := e.db.Exec(upd, int64(i)); err != nil {
			return err
		}
		viaSQL = append(viaSQL, time.Since(t0))
		t0 = time.Now()
		if _, err := e.eng.Exec(upd, relation.Int(int64(i))); err != nil {
			return err
		}
		direct = append(direct, time.Since(t0))
	}
	out["sqldriver.overhead_us"] = (median(viaSQL) - median(direct)) * 1e3

	// A pin is tens of nanoseconds: time blocks of 1000.
	ds, _ = timed(50, func(int) error {
		for j := 0; j < 1000; j++ {
			e.eng.PinSnapshot().Close()
		}
		return nil
	})
	out["sqldb.pin_us"] = median(ds) // ms per 1000 pins = µs per pin
	return nil
}

// walProbe measures the WAL on a durable replica of the workload's D,
// for workloads whose own engine is volatile: walProbeUpdates updates,
// then a restart whose recovered flags must equal the oracle's.
func walProbe(h *harness, rows int, out map[string]float64) error {
	const walProbeUpdates = 20
	w := &libWork{h: h, rows: rows, durable: true}
	if err := w.setup(); err != nil {
		return err
	}
	defer w.close()
	w.prepareUpdates(walProbeUpdates)
	ckpt0 := w.e.fs.checkpoints.Load()
	for {
		if _, ok := w.freshUpdate(nil); !ok {
			break
		}
	}
	out["wal.bytes_per_op"] = float64(w.updLog) / walProbeUpdates
	out["wal.bytes_per_user_byte"] = float64(w.updLog) / float64(w.userBytes)
	out["wal.checkpoints"] = float64(w.e.fs.checkpoints.Load() - ckpt0)
	if err := w.verify("WAL probe"); err != nil {
		return err
	}
	dir := w.e.walDir
	t0 := time.Now()
	e, err := w.e.reopen()
	if err != nil {
		w.e = nil
		os.RemoveAll(dir)
		return fmt.Errorf("WAL probe restart: %w", err)
	}
	out["wal.recover_ms"] = ms(time.Since(t0))
	w.e = e
	return checkFlags(e.det, w.want)
}

// serverProbe measures the server layer for workloads whose path does
// not cross it: a serveProbeSeconds serve window, with serve's clients
// and mix, on a session at serve's |D|.
func serverProbe(h *harness, tr *tracer, out map[string]float64) error {
	const serveProbeSeconds = 4
	w := &serveWorkload{h: h}
	defer w.close()
	if err := w.setup(); err != nil {
		return err
	}
	w.prepareClients(serveProbeSeconds * serveUpdatesPerSecond)
	if _, _, err := w.loop(tr, time.Now().Add(serveProbeSeconds*time.Second)); err != nil {
		return err
	}
	if err := w.verify("server probe"); err != nil {
		return err
	}
	w.serverLayers(tr, out)
	return nil
}

// replicaProbe measures the detect and sqldb layers for the serve
// workload, whose engine sits behind the server: a volatile detector
// on the session's D, fed the same check bodies.
func replicaProbe(h *harness, tr *tracer, out map[string]float64) error {
	w := &libWork{h: h, rows: serveRows, checksPerCycle: 16}
	if err := w.setup(); err != nil {
		return err
	}
	defer w.close()
	w.prepareUpdates(10)
	_, _, total, err := w.e.det.Counts()
	if err != nil {
		return err
	}
	for cycle := 0; cycle < 20; cycle++ {
		w.reads(tr, cycle, total)
	}
	for {
		if _, ok := w.freshUpdate(tr); !ok {
			break
		}
	}
	if err := w.verify("replica"); err != nil {
		return err
	}
	if err := stmtProbe(w.e, tr, out); err != nil {
		return err
	}
	if err := countsProbe(w.e, tr, out); err != nil {
		return err
	}
	spanLayers(tr, out)
	return nil
}
