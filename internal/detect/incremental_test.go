package detect

import (
	"bytes"
	"database/sql"
	"fmt"
	"strings"
	"testing"

	"ecfd/internal/core"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// TestMVClearedOrKeptAcrossPaths pins the MV transitions of one update
// on every detection path. Two embedded FDs, A → B and C → B, over
//
//	RID  A   B  C
//	1    a1  x  c1   A-group a1 with 2; C-group c1 with 5
//	2    a1  y  c2   deleted: a1 stops violating
//	3    a2  p  c3   A-group a2 with 4
//	4    a2  q  c4
//	5    a9  w  c1
//	6    a3  z  c5   clean
//	7    a5  u  c8   A-group a5 with 8: the survivor's MV must clear
//	8    a5  v  c9   deleted: a5 stops violating
//
// ΔD deletes RIDs 2 and 8 and inserts (a2, r, c10) into the
// already-violating group a2. Afterwards MV must be cleared on 7, kept
// on 1 (its a1 group left Aux but c1 still violates), kept on 3 and 4,
// set on the new RID 9 — on the batch, parallel, incremental and
// durable (before and after a restart) paths, each checked against the
// oracle row by row and rendering Violations() byte-identical to the
// batch path.
func TestMVClearedOrKeptAcrossPaths(t *testing.T) {
	s := relation.MustSchema("mvk",
		relation.Attribute{Name: "A", Kind: relation.KindText},
		relation.Attribute{Name: "B", Kind: relation.KindText},
		relation.Attribute{Name: "C", Kind: relation.KindText},
	)
	fd := func(name, x string) *core.ECFD {
		return &core.ECFD{Name: name, Schema: s, X: []string{x}, Y: []string{"B"},
			Tableau: []core.PatternTuple{{LHS: []core.Pattern{core.Any()}, RHS: []core.Pattern{core.Any()}}}}
	}
	sigma := []*core.ECFD{fd("ab", "A"), fd("cb", "C")}
	rows := func(vals ...string) *relation.Relation {
		r := relation.New(s)
		for i := 0; i < len(vals); i += 3 {
			r.MustInsert(relation.Tuple{relation.Text(vals[i]), relation.Text(vals[i+1]), relation.Text(vals[i+2])})
		}
		return r
	}
	inst := rows("a1", "x", "c1", "a1", "y", "c2", "a2", "p", "c3", "a2", "q", "c4",
		"a9", "w", "c1", "a3", "z", "c5", "a5", "u", "c8", "a5", "v", "c9")
	ins := rows("a2", "r", "c10")
	doomed := []int64{2, 8}
	wantMV := map[int64]bool{1: true, 3: true, 4: true, 5: true, 9: true}

	// The oracle first: the expected flags are the naive semantics'.
	after := rows("a1", "x", "c1", "a2", "p", "c3", "a2", "q", "c4",
		"a9", "w", "c1", "a3", "z", "c5", "a5", "u", "c8", "a2", "r", "c10")
	afterRIDs := []int64{1, 3, 4, 5, 6, 7, 9}
	naive, err := core.NaiveDetect(after, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for i, rid := range afterRIDs {
		if naive.MV[i] != wantMV[rid] || naive.SV[i] {
			t.Fatalf("oracle disagrees with the fixture at RID %d: SV=%v MV=%v", rid, naive.SV[i], naive.MV[i])
		}
	}

	// Every leg's flags must match the oracle row for row, and its
	// Violations() bytes the batch leg's.
	checkFlags := func(leg string, flags map[int64][2]bool, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", leg, err)
		}
		if len(flags) != len(afterRIDs) {
			t.Errorf("%s holds %d rows, want %d", leg, len(flags), len(afterRIDs))
		}
		for _, rid := range afterRIDs {
			if got := flags[rid]; got[1] != wantMV[rid] || got[0] {
				t.Errorf("%s RID %d: SV=%v MV=%v, want SV=false MV=%v", leg, rid, got[0], got[1], wantMV[rid])
			}
		}
	}
	var want []byte

	// Batch and parallel: apply ΔD raw, then detect from scratch.
	for _, leg := range []struct {
		name   string
		detect func(d *Detector) error
	}{
		{"batch", func(d *Detector) error { _, err := d.BatchDetect(); return err }},
		{"parallel", func(d *Detector) error { _, err := d.ParallelDetect(4); return err }},
	} {
		d := newDetector(t, sigma, inst)
		if err := d.DeleteRaw(doomed); err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertRaw(ins); err != nil {
			t.Fatal(err)
		}
		if err := leg.detect(d); err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		flags, err := d.FlagsByRID()
		checkFlags(leg.name, flags, err)
		got := violationCSV(t, d)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s vs batch:\n%s\nwant:\n%s", leg.name, got, want)
		}
	}

	// Incremental: the §V-B script.
	dInc := newDetector(t, sigma, inst)
	if _, err := dInc.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dInc.ApplyUpdates(ins, doomed); err != nil {
		t.Fatal(err)
	}
	flags, err := dInc.FlagsByRID()
	checkFlags("incremental", flags, err)
	if got := violationCSV(t, dInc); !bytes.Equal(got, want) {
		t.Errorf("incremental vs batch:\n%s\nwant:\n%s", got, want)
	}

	// Durable: the incremental script through the WAL, then a restart
	// that recovers the flags from the log.
	fs := sqldb.NewMemFS(77)
	openDur := func() (*Detector, *sql.DB, string) {
		dsn := fmt.Sprintf("detect_mvk_%d", dsnSeq.Add(1))
		eng, err := sqldb.Open(sqldb.WALOptions{Dir: "/wal", FS: fs, Fsync: sqldb.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		sqldriver.RegisterDB(dsn, eng)
		db, err := sql.Open(sqldriver.DriverName, dsn)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(db, s, sigma)
		if err != nil {
			t.Fatal(err)
		}
		d.SetAtomicUpdates(true)
		return d, db, dsn
	}
	dDur, dbDur, dsn := openDur()
	if err := dDur.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := dDur.LoadData(inst); err != nil {
		t.Fatal(err)
	}
	if _, err := dDur.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dDur.ApplyUpdates(ins, doomed); err != nil {
		t.Fatal(err)
	}
	flags, err = dDur.FlagsByRID()
	checkFlags("durable", flags, err)
	if got := violationCSV(t, dDur); !bytes.Equal(got, want) {
		t.Errorf("durable vs batch:\n%s\nwant:\n%s", got, want)
	}
	dbDur.Close()
	sqldriver.Unregister(dsn)
	dDur, dbDur, dsn = openDur()
	defer sqldriver.Unregister(dsn)
	defer dbDur.Close()
	if err := dDur.Resume(); err != nil {
		t.Fatal(err)
	}
	flags, err = dDur.FlagsByRID()
	checkFlags("durable after restart", flags, err)
	if got := violationCSV(t, dDur); !bytes.Equal(got, want) {
		t.Errorf("durable after restart vs batch:\n%s\nwant:\n%s", got, want)
	}

}

// TestIncrementalStatementsDeltaDriven is the EXPLAIN acceptance for
// the §V-B maintenance script: the statements that used to scan D are
// driven from ΔD and the touched keys instead.
//
//   - keysFromDel drives from the ΔD⁻ staging table and reaches the
//     doomed tuples through D's RID index, binary-searched;
//   - the recompute's two enc-only guards (the RHS guard and the
//     per-CID touched-keys guard) are decided at the enc level, so an
//     untouched pattern tuple never scans D;
//   - deleteRows selects its rows by a planned semi-join from the ΔD⁻
//     staging table rather than a full scan with a row filter.
func TestIncrementalStatementsDeltaDriven(t *testing.T) {
	dsn := fmt.Sprintf("detect_inc_explain_%d", dsnSeq.Add(1))
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
	rids, err := d.LoadData(gen.Dataset(gen.Config{Rows: 2000, Noise: 5, Seed: 29}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	// Stage a ΔD⁻ larger than enc: the ΔD⁻ scan must still drive
	// keysFromDel, not the smaller enc table.
	if err := d.loadDelRids(d.db, rids[:100]); err != nil {
		t.Fatal(err)
	}
	eng := sqldriver.Engine(dsn)
	explain := func(name, q string) string {
		t.Helper()
		plan, err := eng.Explain(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return plan
	}
	// levelLine returns the plan line of the level scanning the given
	// alias ("scan c (", "index probe t via ...").
	levelLine := func(plan, prefix string) string {
		for _, line := range strings.Split(plan, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), prefix) {
				return line
			}
		}
		return ""
	}

	plan := explain("keysFromDel", d.stmts.keysFromDel)
	lines := strings.Split(strings.TrimSpace(plan), "\n")
	if len(lines) < 2 || !strings.HasPrefix(strings.TrimSpace(lines[1]), "scan x ") {
		t.Fatalf("keysFromDel is not driven from the ΔD⁻ staging table:\n%s", plan)
	}
	if !strings.Contains(plan, fmt.Sprintf("index probe t via idx_%s_rid (binary search)", d.dataTable)) {
		t.Fatalf("keysFromDel does not reach D through a binary-searched RID index probe:\n%s", plan)
	}

	plan = explain("auxRecompute", d.stmts.auxRecompute)
	enc := levelLine(plan, "scan c (")
	// Both guards run as OR-group kernels over the enc rows: the
	// touched-keys EXISTS as a one-term probe group, the RHS guard as
	// one term per attribute.
	if !strings.Contains(enc, fmt.Sprintf("[batch: or-group(1 terms) + or-group(%d terms)]", len(d.schema.Attrs))) {
		t.Fatalf("auxRecompute guards are not decided at the enc level:\n%s", plan)
	}
	if idx := strings.Index(plan, enc); idx < 0 || !strings.Contains(plan[idx+len(enc):], "scan t (") {
		t.Fatalf("auxRecompute does not scan D below the enc level:\n%s", plan)
	}

	plan = explain("deleteRows", d.stmts.deleteRows)
	if !strings.Contains(plan, "semi-join row selection") ||
		!strings.Contains(plan, fmt.Sprintf("index probe t via idx_%s_rid (binary search)", d.dataTable)) {
		t.Fatalf("deleteRows does not select its rows by a planned RID semi-join:\n%s", plan)
	}
}
