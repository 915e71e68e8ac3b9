package detect

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// TestDetectThreeWayDifferential drives three detectors over identical
// random DML sequences and asserts byte-identical violation sets after
// every step:
//
//   - d_inc runs BatchDetect once, then maintains flags and Aux
//     incrementally (ApplyUpdates) — the §V-B path;
//   - d_batch applies the same changes raw (no maintenance) and
//     recomputes with BatchDetect after each step;
//   - d_par applies the same raw changes and recomputes with
//     ParallelDetect(8);
//   - d_dur runs the incremental path on a durable engine over a
//     fault-injected filesystem: every step arms a crash at a random
//     upcoming I/O point, and when it fires the "process" restarts —
//     reopen, Resume, redo the update if its commit unit did not make
//     it to the log — and must still land byte-identical;
//   - a read-only transaction pinned on d_inc before each update must
//     render the pre-update violation set while ApplyUpdates commits
//     concurrently — MVCC snapshot stability.
//
// All legs assign identical RID sequences (same insert batches in the
// same order), so Violations() must render to the same bytes — not
// just the same multiset. The whole differential runs with batch
// kernels on and forced off, pinning every kernel path end to end.
func TestDetectThreeWayDifferential(t *testing.T) {
	recoveries := 0
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(157))
		for trial := 0; trial < 6; trial++ {
			inst, sigma := randomInstanceAndSigma(rng, 45)
			dInc := newDetector(t, sigma, inst)
			dBatch := newDetector(t, sigma, inst)
			dPar := newDetector(t, sigma, inst)
			if _, err := dInc.BatchDetect(); err != nil {
				t.Fatal(err)
			}

			// The durable leg: atomic updates on a MemFS-backed WAL,
			// fsync'd every commit so an acknowledged update is never
			// lost, with a small checkpoint threshold so crashes also
			// land mid-rotation.
			fs := sqldb.NewMemFS(int64(9000 + trial))
			walOpts := sqldb.WALOptions{Dir: "/wal", FS: fs, Fsync: sqldb.FsyncAlways, CheckpointBytes: 8 << 10}
			dsn := fmt.Sprintf("detect_durable_%d", dsnSeq.Add(1))
			eng, err := sqldb.Open(walOpts)
			if err != nil {
				t.Fatal(err)
			}
			sqldriver.RegisterDB(dsn, eng)
			dbDur, err := sql.Open(sqldriver.DriverName, dsn)
			if err != nil {
				t.Fatal(err)
			}
			dDur, err := New(dbDur, inst.Schema, sigma)
			if err != nil {
				t.Fatal(err)
			}
			dDur.SetAtomicUpdates(true)
			if err := dDur.Install(); err != nil {
				t.Fatal(err)
			}
			if _, err := dDur.LoadData(inst); err != nil {
				t.Fatal(err)
			}
			if _, err := dDur.BatchDetect(); err != nil {
				t.Fatal(err)
			}

			for step := 0; step < 4; step++ {
				// One combined update ΔD = (ΔD⁻, ΔD⁺): a random subset of
				// current RIDs leaves, a random batch arrives.
				rids, err := dInc.RIDs()
				if err != nil {
					t.Fatal(err)
				}
				var doomed []int64
				if len(rids) > 0 && rng.Intn(4) > 0 {
					k := 1 + rng.Intn(len(rids)/3+1)
					for _, i := range rng.Perm(len(rids))[:k] {
						doomed = append(doomed, rids[i])
					}
				}
				var batch *relation.Relation
				if rng.Intn(5) > 0 {
					batch = randomRows(rng, inst.Schema, 1+rng.Intn(12))
				}

				// Fifth leg — MVCC snapshot stability: a reader that pinned
				// its snapshot (read-only transaction) before the update
				// must render the pre-update violation set byte for byte,
				// however its reads interleave with the concurrent
				// ApplyUpdates running on another goroutine.
				preTx, err := dInc.db.BeginTx(context.Background(), &sql.TxOptions{ReadOnly: true})
				if err != nil {
					t.Fatal(err)
				}
				before := violationCSVVia(t, dInc, preTx)
				incDone := make(chan error, 1)
				go func() {
					_, _, err := dInc.ApplyUpdates(batch, doomed)
					incDone <- err
				}()
				for probe := 0; probe < 3; probe++ {
					if during := violationCSVVia(t, dInc, preTx); !bytes.Equal(before, during) {
						t.Fatalf("trial %d step %d probe %d: pinned snapshot drifted under concurrent ApplyUpdates\nbefore:\n%s\nduring:\n%s",
							trial, step, probe, before, during)
					}
				}
				if err := <-incDone; err != nil {
					t.Fatalf("trial %d step %d incremental: %v", trial, step, err)
				}
				// The pin outlives the commit; the frozen view must still
				// be intact after the writer won.
				if after := violationCSVVia(t, dInc, preTx); !bytes.Equal(before, after) {
					t.Fatalf("trial %d step %d: pinned snapshot drifted after ApplyUpdates committed\nbefore:\n%s\nafter:\n%s",
						trial, step, before, after)
				}
				preTx.Rollback()
				for _, d := range []*Detector{dBatch, dPar} {
					if err := d.DeleteRaw(doomed); err != nil {
						t.Fatal(err)
					}
					if batch != nil {
						if _, err := d.InsertRaw(batch); err != nil {
							t.Fatal(err)
						}
					}
				}
				if _, err := dBatch.BatchDetect(); err != nil {
					t.Fatalf("trial %d step %d batch: %v", trial, step, err)
				}
				if _, err := dPar.ParallelDetect(8); err != nil {
					t.Fatalf("trial %d step %d parallel: %v", trial, step, err)
				}

				// Durable leg: crash at a random point inside (or just
				// after) the update's I/O, then recover and reconcile.
				savedRID := dDur.nextRID
				fs.Arm(sqldb.FaultCrash, 1+rng.Intn(5))
				if _, _, err := dDur.ApplyUpdates(batch, doomed); err == nil {
					fs.Disarm()
				} else {
					recoveries++
					fs.Crash()
					dbDur.Close()
					if eng, err = sqldb.Open(walOpts); err != nil {
						t.Fatalf("trial %d step %d: recovery open: %v", trial, step, err)
					}
					sqldriver.RegisterDB(dsn, eng)
					if dbDur, err = sql.Open(sqldriver.DriverName, dsn); err != nil {
						t.Fatal(err)
					}
					if dDur, err = New(dbDur, inst.Schema, sigma); err != nil {
						t.Fatal(err)
					}
					dDur.SetAtomicUpdates(true)
					if err := dDur.Resume(); err != nil {
						t.Fatalf("trial %d step %d: resume: %v", trial, step, err)
					}
					// Resume restores the allocator from MAX(RID), which
					// under-counts when deletions removed the maximal
					// rows; pin it to the dead process's value — the
					// legs must assign identical RID sequences for the
					// byte-differential to be meaningful.
					dDur.nextRID = savedRID
					if durStepApplied(t, dbDur, dDur, batch, doomed, savedRID) {
						if batch != nil {
							dDur.nextRID = savedRID + int64(batch.Len())
						}
					} else if _, _, err := dDur.ApplyUpdates(batch, doomed); err != nil {
						t.Fatalf("trial %d step %d: redo after recovery: %v", trial, step, err)
					}
				}

				vInc := violationCSV(t, dInc)
				vBatch := violationCSV(t, dBatch)
				vPar := violationCSV(t, dPar)
				vDur := violationCSV(t, dDur)
				if !bytes.Equal(vInc, vBatch) {
					t.Fatalf("trial %d step %d: incremental vs batch violation sets differ\nsigma: %s\ninc:\n%s\nbatch:\n%s",
						trial, step, sigmaString(sigma), vInc, vBatch)
				}
				if !bytes.Equal(vBatch, vPar) {
					t.Fatalf("trial %d step %d: batch vs parallel(8) violation sets differ\nbatch:\n%s\npar:\n%s",
						trial, step, vBatch, vPar)
				}
				if !bytes.Equal(vInc, vDur) {
					t.Fatalf("trial %d step %d: incremental vs durable violation sets differ\nsigma: %s\ninc:\n%s\ndur:\n%s",
						trial, step, sigmaString(sigma), vInc, vDur)
				}
			}
			dbDur.Close()
			sqldriver.Unregister(dsn)
		}
	}
	t.Run("kernels=on", run)
	t.Run("kernels=off", func(t *testing.T) {
		sqldb.DisableBatchKernels = true
		defer func() { sqldb.DisableBatchKernels = false }()
		run(t)
	})
	if recoveries == 0 {
		t.Error("no crash ever fired: the durable leg exercised no recovery")
	}
	t.Logf("durable leg: %d crash recoveries across both kernel modes", recoveries)
}

// durStepApplied reports whether the interrupted atomic update's
// commit unit reached the log before the crash. ApplyUpdates leaves
// this step's batch in the ins staging table until the next step
// truncates it, so a surviving batch (its RIDs continue savedRID) or
// a vanished doomed row means the unit committed; a step with neither
// inserts nor deletes is a semantic no-op either way.
func durStepApplied(t *testing.T, db *sql.DB, d *Detector, batch *relation.Relation, doomed []int64, savedRID int64) bool {
	t.Helper()
	switch {
	case batch != nil && batch.Len() > 0:
		var m sql.NullInt64
		if err := db.QueryRow("SELECT MAX(" + ColRID + ") FROM " + d.insTable).Scan(&m); err != nil {
			t.Fatal(err)
		}
		return m.Valid && m.Int64 == savedRID+int64(batch.Len())
	case len(doomed) > 0:
		var n int64
		q := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = %d", d.dataTable, ColRID, doomed[0])
		if err := db.QueryRow(q).Scan(&n); err != nil {
			t.Fatal(err)
		}
		return n == 0
	}
	return false
}

// TestBatchDetectStatementsFullyBatched is the EXPLAIN acceptance for
// the kernelized closure tail: none of the five BatchDetect statements
// may contain a `[row]` scan source — every scan level with predicate
// work runs kernels or OR groups, and pure join drivers carry no
// evaluation-mode marker at all.
func TestBatchDetectStatementsFullyBatched(t *testing.T) {
	dsn := fmt.Sprintf("detect_batched_%d", dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer sqldriver.Unregister(dsn)
	d, err := New(db, gen.Schema(), gen.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadData(gen.Dataset(gen.Config{Rows: 1000, Noise: 5, Seed: 23})); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	eng := sqldriver.Engine(dsn)
	stmts := map[string]string{
		"resetFlags": d.stmts.resetFlags,
		"qsvUpdate":  d.stmts.qsvUpdate,
		"qmvInsert":  d.stmts.qmvInsert,
		"mvUpdate":   d.stmts.mvUpdate,
		"truncAux":   "TRUNCATE TABLE " + d.auxTable,
		// The parallel statement set rides the same kernels: since
		// mvRIDsSlice was flattened from EXISTS-over-conjunction to a
		// semi-join, none of the three may fall back to a [row] scan.
		"qsvRIDsSlice":    d.stmts.qsvRIDsSlice,
		"qmvGroupsCIDRng": d.stmts.qmvGroupsCIDRng,
		"mvRIDsSlice":     d.stmts.mvRIDsSlice,
	}
	for name, q := range stmts {
		plan, err := eng.Explain(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if strings.Contains(plan, "[row]") {
			t.Fatalf("%s still has a [row] scan source:\n%s", name, plan)
		}
	}
	// And the pattern-predicate scans run OR-group kernels, not just
	// marker-free drivers.
	for _, name := range []string{"qsvUpdate", "qmvInsert", "mvUpdate"} {
		plan, _ := eng.Explain(stmts[name])
		if !strings.Contains(plan, "or-group(") {
			t.Fatalf("%s carries no OR-group kernels:\n%s", name, plan)
		}
	}
	// The Qmv groupings must share the macro's DISTINCT key spine: the
	// 10-column group key (CID + 9 blanked-LHS columns) is a prefix of
	// the 19-column dedup key, so it is never encoded twice.
	for _, name := range []string{"qmvInsert", "qmvGroupsCIDRng"} {
		plan, _ := eng.Explain(stmts[name])
		if !strings.Contains(plan, "[spine: 10-col keys shared with distinct source]") {
			t.Fatalf("%s grouping does not share the distinct key spine:\n%s", name, plan)
		}
	}
}
