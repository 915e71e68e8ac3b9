package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ecfd/internal/relation"
)

// TestSnapOverlay pins the overlay contract: a query at an overlay
// sees the caller's rows (coerced to the column kinds) in place of one
// table and the pinned epoch everywhere else, while the engine
// publishes nothing, logs nothing and keeps no extra pin.
func TestSnapOverlay(t *testing.T) {
	fs := NewMemFS(5)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	defer db.Close()
	walExec(t, db,
		"CREATE TABLE cand (k INT, v FLOAT, tag TEXT)",
		"CREATE INDEX cand_k ON cand (k)",
		"CREATE TABLE ref (k INT, name TEXT)",
		"INSERT INTO ref VALUES (1, 'one'), (2, 'two'), (3, 'three')",
		"INSERT INTO cand VALUES (9, 9.5, 'published')",
	)
	_, walBefore := walFileBytes(t, fs, db)
	st0 := db.Stats()

	join, err := db.Prepare("SELECT c.tag, r.name, c.v FROM cand c, ref r WHERE r.k = c.k ORDER BY c.tag")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := db.Prepare("SELECT tag FROM cand WHERE k = ?")
	if err != nil {
		t.Fatal(err)
	}

	s := db.PinSnapshot()
	ov, err := s.Overlay("CAND", []relation.Tuple{
		{relation.Int(1), relation.Int(4), relation.Text("a")}, // INT into FLOAT, as INSERT coerces
		{relation.Int(3), relation.Float(0.5), relation.Int(7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := join.QueryAt(ov)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		got[i] = row[0].String() + "/" + row[1].String() + "/" + row[2].String()
		if row[2].K != relation.KindFloat {
			t.Fatalf("overlay value not coerced to the column kind: %v", row[2])
		}
	}
	if want := "7/three/0.5 a/one/4"; strings.Join(got, " ") != want {
		t.Fatalf("overlay join = %q, want %q", strings.Join(got, " "), want)
	}
	// The overlay table's index answers for the overlay rows.
	if res, err = probe.QueryAt(ov, relation.Int(3)); err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "7" {
		t.Fatalf("index probe at overlay: %v %v", res, err)
	}
	if res, err = probe.QueryAt(ov, relation.Int(9)); err != nil || len(res.Rows) != 0 {
		t.Fatalf("overlay leaked the published row: %v %v", res, err)
	}
	// The parent snapshot and plain queries still see the published row.
	for _, r := range []func() (*Result, error){
		func() (*Result, error) { return probe.QueryAt(s, relation.Int(9)) },
		func() (*Result, error) { return probe.Query(relation.Int(9)) },
	} {
		if res, err = r(); err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "published" {
			t.Fatalf("published state disturbed by the overlay: %v %v", res, err)
		}
	}
	if v := ov.ep.tds[ov.ep.tables["cand"]].version; v&overlayVersionBit == 0 {
		t.Fatalf("overlay version %d lacks the overlay bit", v)
	}

	// Nothing published, nothing logged, no pin beyond the parent's.
	if st := db.Stats(); st.EpochSeq != st0.EpochSeq || st.LiveEpochs != 1 {
		t.Fatalf("overlay moved the engine: before %+v, after %+v", st0, st)
	}
	if _, walAfter := walFileBytes(t, fs, db); len(walAfter) != len(walBefore) {
		t.Fatalf("overlay appended %d WAL bytes", len(walAfter)-len(walBefore))
	}

	// Errors: width mismatch, lossy coercion, unknown table.
	if _, err := s.Overlay("cand", []relation.Tuple{{relation.Int(1)}}); err == nil {
		t.Fatal("short overlay row accepted")
	}
	if _, err := s.Overlay("cand", []relation.Tuple{{relation.Text("x"), relation.Float(1), relation.Text("t")}}); err == nil {
		t.Fatal("TEXT value accepted into an INT column")
	}
	if _, err := s.Overlay("nope", nil); err == nil {
		t.Fatal("overlay of a missing table accepted")
	}

	// Clone adds a pin: the epoch stays live, retired behind a write,
	// until both holders have closed.
	c := s.Clone()
	walExec(t, db, "INSERT INTO ref VALUES (4, 'four')")
	ov.Close() // holds no pin of its own
	s.Close()
	if st := db.Stats(); st.RetiredEpochs != 1 {
		t.Fatalf("clone did not keep the epoch pinned: %+v", st)
	}
	if res, err = join.QueryAt(c); err != nil || len(res.Rows) != 0 {
		t.Fatalf("clone does not read the cloned epoch: %v %v", res, err)
	}
	c.Close()
	if st := db.Stats(); st.RetiredEpochs != 0 || st.LiveEpochs != 1 {
		t.Fatalf("pins leaked after both holders closed: %+v", st)
	}
	if _, err := s.Overlay("cand", nil); err == nil {
		t.Fatal("overlay of a closed snapshot accepted")
	}
}

// TestEqMapGrowthUnderConcurrentProbes races single-row appends, each
// followed by an index probe at the new fence (the growing successor's
// path, while fewer rows than the map's keys/growCopyRatio have been
// appended since its last publication), against readers probing
// pinned older epochs (the published generation's lock-free path), and
// checks every answer against the rows the reader's epoch holds. Run it
// under -race.
func TestEqMapGrowthUnderConcurrentProbes(t *testing.T) {
	db := NewDB()
	walExec(t, db, "CREATE TABLE t (k INTEGER)", "CREATE INDEX ik ON t (k)", "CREATE TABLE q (k INTEGER)")
	for k := 0; k < 1300; k += 10 {
		walExec(t, db, fmt.Sprintf("INSERT INTO q VALUES (%d)", k))
	}
	for k := 0; k < 300; k++ {
		walExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", k))
	}
	// t holds k = 0 … n-1, so (n+9)/10 keys of q find a match.
	hits, err := db.Prepare("SELECT COUNT(*) FROM q WHERE EXISTS (SELECT 1 FROM t WHERE t.k = q.k)")
	if err != nil {
		t.Fatal(err)
	}
	size, err := db.Prepare("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare("INSERT INTO t VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := db.PinSnapshot()
				n, err := size.QueryAt(s)
				if err == nil {
					var got *Result
					if got, err = hits.QueryAt(s); err == nil && got.Rows[0][0].I != (n.Rows[0][0].I+9)/10 {
						err = fmt.Errorf("%d probe hits over %d rows", got.Rows[0][0].I, n.Rows[0][0].I)
					}
				}
				s.Close()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for k := 300; k < 1300; k++ {
		if _, err := ins.Exec(relation.Int(int64(k))); err != nil {
			t.Fatal(err)
		}
		res, err := hits.Query()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(k+10) / 10; res.Rows[0][0].I != want {
			t.Fatalf("after k = %d: %d probe hits, want %d", k, res.Rows[0][0].I, want)
		}
	}
	close(stop)
	wg.Wait()
	verifyIndexConsistent(t, db, "t", "ik")
}
