package detect

import (
	"bytes"
	"database/sql"
	"fmt"
	"strings"
	"testing"

	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldriver"
)

// newBenchDetector builds a detector over the generator's schema and
// constraint set with a loaded dataset — the Fig. 5 workload shape.
func newBenchDetector(t testing.TB, rows int, seed int64) (*Detector, func()) {
	t.Helper()
	dsn := fmt.Sprintf("detect_par_%d_%d_%d", rows, seed, dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		db.Close()
		sqldriver.Unregister(dsn)
	}
	d, err := New(db, gen.Schema(), gen.Constraints())
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		cleanup()
		t.Fatal(err)
	}
	if _, err := d.LoadData(gen.Dataset(gen.Config{Rows: rows, Noise: 5, Seed: seed})); err != nil {
		cleanup()
		t.Fatal(err)
	}
	return d, cleanup
}

// violationCSV renders the full violation set, read at the committed
// view, for byte-level comparison across runs.
func violationCSV(t *testing.T, d *Detector) []byte {
	t.Helper()
	vio, err := d.Violations()
	if err != nil {
		t.Fatal(err)
	}
	return renderCSV(t, vio)
}

// violationCSVVia renders the violation set as seen through q —
// typically a read-only transaction pinning one snapshot.
func violationCSVVia(t *testing.T, d *Detector, q Queryer) []byte {
	t.Helper()
	vio, err := d.ViolationsVia(q)
	if err != nil {
		t.Fatal(err)
	}
	return renderCSV(t, vio)
}

func renderCSV(t *testing.T, vio *relation.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := vio.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelDetectMatchesBatch checks that ParallelDetect computes
// exactly the flags of the serial BatchDetect, per RID, at several
// worker counts — including worker counts that exceed the task count.
func TestParallelDetectMatchesBatch(t *testing.T) {
	const rows = 3_000
	ds, cleanupS := newBenchDetector(t, rows, 7)
	defer cleanupS()
	bst, err := ds.BatchDetect()
	if err != nil {
		t.Fatal(err)
	}
	if bst.Total == 0 {
		t.Fatal("workload has no violations; test is vacuous")
	}
	want, err := ds.FlagsByRID()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dp, cleanupP := newBenchDetector(t, rows, 7)
			defer cleanupP()
			pst, err := dp.ParallelDetect(workers)
			if err != nil {
				t.Fatal(err)
			}
			if pst.SV != bst.SV || pst.MV != bst.MV || pst.Total != bst.Total {
				t.Fatalf("counts: parallel (SV %d, MV %d, total %d) != batch (SV %d, MV %d, total %d)",
					pst.SV, pst.MV, pst.Total, bst.SV, bst.MV, bst.Total)
			}
			got, err := dp.FlagsByRID()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("flag map size %d, want %d", len(got), len(want))
			}
			for rid, w := range want {
				if got[rid] != w {
					t.Fatalf("RID %d: flags %v, want %v", rid, got[rid], w)
				}
			}
		})
	}
}

// TestParallelDetectDeterministic requires byte-identical violation
// output across repeated parallel runs (scheduling must not leak into
// the result) and against the serial run.
func TestParallelDetectDeterministic(t *testing.T) {
	const rows = 2_000
	ds, cleanupS := newBenchDetector(t, rows, 3)
	defer cleanupS()
	if _, err := ds.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	serial := violationCSV(t, ds)

	var first []byte
	for run := 0; run < 3; run++ {
		dp, cleanupP := newBenchDetector(t, rows, 3)
		pst, err := dp.ParallelDetect(4)
		if err != nil {
			cleanupP()
			t.Fatal(err)
		}
		if pst.Total == 0 {
			cleanupP()
			t.Fatal("no violations; test is vacuous")
		}
		got := violationCSV(t, dp)
		cleanupP()
		if run == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("run %d produced different violation bytes", run)
		}
	}
	if !bytes.Equal(first, serial) {
		t.Fatal("parallel violation set differs from serial BatchDetect")
	}
}

// TestParallelDetectThenIncremental checks that incremental
// maintenance composes with a parallel base detection: ParallelDetect
// must leave Aux and the flags in exactly the state IncDetect expects.
func TestParallelDetectThenIncremental(t *testing.T) {
	const rows = 2_000
	mk := func(parallel bool) map[int64][2]bool {
		d, cleanup := newBenchDetector(t, rows, 11)
		defer cleanup()
		var err error
		if parallel {
			_, err = d.ParallelDetect(4)
		} else {
			_, err = d.BatchDetect()
		}
		if err != nil {
			t.Fatal(err)
		}
		batch := gen.Updates(gen.Config{Rows: rows, Noise: 5, Seed: 11}, 200, 5)
		if _, _, err := d.InsertTuples(batch); err != nil {
			t.Fatal(err)
		}
		flags, err := d.FlagsByRID()
		if err != nil {
			t.Fatal(err)
		}
		return flags
	}
	want := mk(false)
	got := mk(true)
	if len(got) != len(want) {
		t.Fatalf("flag map size %d, want %d", len(got), len(want))
	}
	for rid, w := range want {
		if got[rid] != w {
			t.Fatalf("RID %d: flags %v, want %v", rid, got[rid], w)
		}
	}
}

// TestParallelDetectEmpty covers the empty-relation edge: no rows, no
// violations, no partitioning arithmetic surprises.
func TestParallelDetectEmpty(t *testing.T) {
	dsn := fmt.Sprintf("detect_par_empty_%d", dsnSeq.Add(1))
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
	st, err := d.ParallelDetect(4)
	if err != nil {
		t.Fatal(err)
	}
	if st.SV != 0 || st.MV != 0 || st.Total != 0 {
		t.Fatalf("empty relation produced violations: %+v", st)
	}
}

// TestRIDSlices pins the partitioning arithmetic: full disjoint
// coverage of the actual RIDs, no empty slices even over sparse or
// tiny RID spaces, a single slice for small relations, and balanced
// row counts (±1) across slices.
func TestRIDSlices(t *testing.T) {
	dense := func(lo, hi int64) []int64 {
		out := make([]int64, 0, hi-lo+1)
		for r := lo; r <= hi; r++ {
			out = append(out, r)
		}
		return out
	}
	sparse := func(n int64) []int64 { // every 1000th RID: a heavily deleted relation
		out := make([]int64, 0, n)
		for i := int64(0); i < n; i++ {
			out = append(out, 1+i*1000)
		}
		return out
	}
	cases := []struct {
		name    string
		rids    []int64
		workers int
	}{
		{"dense-8", dense(1, 100_000), 8},
		{"dense-3", dense(1, 100_000), 3},
		{"single", []int64{5}, 8},
		{"small", dense(1, 500), 4},     // below minSliceRows: one slice
		{"medium", dense(1, 10_000), 4}, // above: up to 4 slices
		{"sparse", sparse(10_000), 8},   // sparse RID space: still 8 non-empty slices
		{"empty", nil, 4},
	}
	for _, c := range cases {
		slices := ridSlices(c.rids, c.workers)
		if len(c.rids) == 0 {
			if slices != nil {
				t.Errorf("%s: empty RID list produced slices %v", c.name, slices)
			}
			continue
		}
		if len(slices) == 0 {
			t.Fatalf("%s: no slices", c.name)
		}
		if len(slices) > c.workers {
			t.Errorf("%s: %d slices exceed %d workers", c.name, len(slices), c.workers)
		}
		if len(c.rids) < minSliceRows*2 && len(slices) != 1 {
			t.Errorf("%s: small relation split into %d slices", c.name, len(slices))
		}
		// Walk the RID list against the slices: every RID falls in
		// exactly one slice, slices are adjacent and ascending, no slice
		// is empty, and the per-slice row counts balance to within one
		// n/k quantum.
		idx, minRows, maxRows := 0, len(c.rids), 0
		for si, s := range slices {
			if s[1] < s[0] {
				t.Fatalf("%s: inverted slice %v", c.name, s)
			}
			if si > 0 && s[0] <= slices[si-1][1] {
				t.Fatalf("%s: slice %v overlaps predecessor %v", c.name, s, slices[si-1])
			}
			n := 0
			for idx < len(c.rids) && c.rids[idx] <= s[1] {
				if c.rids[idx] < s[0] {
					t.Fatalf("%s: RID %d not covered by any slice", c.name, c.rids[idx])
				}
				idx++
				n++
			}
			if n == 0 {
				t.Fatalf("%s: empty slice %v", c.name, s)
			}
			if n < minRows {
				minRows = n
			}
			if n > maxRows {
				maxRows = n
			}
		}
		if idx != len(c.rids) {
			t.Fatalf("%s: %d RIDs uncovered after the last slice", c.name, len(c.rids)-idx)
		}
		if maxRows-minRows > 1 {
			t.Errorf("%s: unbalanced slices (min %d rows, max %d)", c.name, minRows, maxRows)
		}
	}
}

// TestParallelSliceQueriesRangePruned pins the access paths of the
// worker statements: the RID-slice scans must run as range-pruned
// scans over the data table's ordered RID index (not full scans), and
// the Violations read must serve its ORDER BY from the index with no
// sort. This is the plumbing that makes each worker's cost
// proportional to its slice instead of the whole relation.
func TestParallelSliceQueriesRangePruned(t *testing.T) {
	dsn := fmt.Sprintf("detect_explain_%d", dsnSeq.Add(1))
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
	if _, err := d.LoadData(gen.Dataset(gen.Config{Rows: 2000, Noise: 5, Seed: 11})); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}

	eng := sqldriver.Engine(dsn)
	qsvSlice, _, mvSlice := d.ParallelSQL()
	for name, q := range map[string]string{"qsvRIDsSlice": qsvSlice, "mvRIDsSlice": mvSlice} {
		plan, err := eng.Explain(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(plan, "range scan t via idx_"+d.dataTable+"_rid") {
			t.Fatalf("%s is not range-pruned over the RID index:\n%s", name, plan)
		}
		// The inclusive slice bounds are exactly implied by the range
		// prune, so their filters elide — no per-row RID re-checks at
		// all, vectorized or otherwise.
		if !strings.Contains(plan, "2 filter(s) elided: implied by range") {
			t.Fatalf("%s slice bounds are not elided into the range prune:\n%s", name, plan)
		}
	}
	// The Qsv slice scan additionally runs its OR-alternative pattern
	// predicates as OR-group kernels over the data's column vectors.
	if plan, err := eng.Explain(qsvSlice); err != nil || !strings.Contains(plan, "or-group(") {
		t.Fatalf("qsvRIDsSlice pattern predicates are not OR-group kernels (%v):\n%s", err, plan)
	}

	vioQ := fmt.Sprintf("SELECT %s FROM %s WHERE %s = 1 OR %s = 1 ORDER BY %s",
		ColRID, d.dataTable, ColSV, ColMV, ColRID)
	plan, err := eng.Explain(vioQ)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "ordered scan") || !strings.Contains(plan, "no sort") {
		t.Fatalf("Violations read does not use the ordered RID index:\n%s", plan)
	}
}
