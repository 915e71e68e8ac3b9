package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// TestSemiJoinDeleteEquivalence: DELETE selects its rows by semi-join,
// by the planned single-source scan or by the per-row filter, and all
// three leave identical table states — including the index structures
// the delete forks, read back through an index probe and an ordered
// range scan.
func TestSemiJoinDeleteEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 20; trial++ {
		setup := func() *DB {
			db := NewDB()
			mustExec(t, db, `CREATE TABLE d (id INTEGER, a INTEGER, flag INTEGER)`)
			mustExec(t, db, `CREATE TABLE pat (p INTEGER, q INTEGER)`)
			mustExec(t, db, `CREATE INDEX idx_d_id ON d (id)`)
			mustExec(t, db, `CREATE INDEX idx_d_a ON d (a)`)
			rng2 := rand.New(rand.NewSource(int64(trial)))
			for i := 0; i < 30+rng2.Intn(40); i++ {
				mustExec(t, db, `INSERT INTO d VALUES (?, ?, 0)`,
					relation.Int(int64(i)), relation.Int(int64(rng2.Intn(8))))
			}
			for i := 0; i < rng2.Intn(6); i++ {
				mustExec(t, db, `INSERT INTO pat VALUES (?, ?)`,
					relation.Int(int64(rng2.Intn(8))), relation.Int(int64(rng2.Intn(3))))
			}
			// Build both structures of both indexes before the delete,
			// so the fork has maps and ordered positions to remap.
			mustQuery(t, db, `SELECT id FROM d WHERE id >= 0 ORDER BY id`)
			mustQuery(t, db, `SELECT a FROM d WHERE a >= 0 ORDER BY a`)
			mustQuery(t, db, `SELECT p FROM pat WHERE EXISTS (SELECT 1 FROM d WHERE d.a = pat.p)`)
			mustQuery(t, db, `SELECT p FROM pat WHERE EXISTS (SELECT 1 FROM d WHERE d.id = pat.p)`)
			return db
		}
		lim := rng.Intn(60)
		q := fmt.Sprintf(
			`DELETE FROM d t WHERE t.id < %d AND EXISTS (SELECT 1 FROM pat c WHERE c.p = t.a AND c.q < 2)`, lim)

		dbA := setup()
		forceSemiJoinUpdate = true
		nA := mustExec(t, dbA, q)
		forceSemiJoinUpdate = false

		dbB := setup()
		disableSemiJoinUpdate = true
		nB := mustExec(t, dbB, q)
		disableSemiJoinUpdate = false

		dbC := setup()
		DisablePlanner = true
		nC := mustExec(t, dbC, q)
		DisablePlanner = false

		if nA != nB || nA != nC {
			t.Fatalf("trial %d: deleted %d / %d / %d rows", trial, nA, nB, nC)
		}
		for _, read := range []string{
			`SELECT id, a, flag FROM d`,
			`SELECT id FROM d WHERE id >= 0 ORDER BY id`,
			`SELECT a, id FROM d WHERE a >= 0 ORDER BY a`,
			`SELECT p, id FROM pat, d WHERE d.a = pat.p`,
			`SELECT p FROM pat WHERE EXISTS (SELECT 1 FROM d WHERE d.a = pat.p)`,
		} {
			a := flat(mustQuery(t, dbA, read))
			if b := flat(mustQuery(t, dbB, read)); a != b {
				t.Fatalf("trial %d: %s: semi-join vs filter delete diverge:\n%s\nvs\n%s", trial, read, a, b)
			}
			if c := flat(mustQuery(t, dbC, read)); a != c {
				t.Fatalf("trial %d: %s: semi-join vs row-filter delete diverge:\n%s\nvs\n%s", trial, read, a, c)
			}
		}
	}
}

// TestExplainDeleteRowSelection: EXPLAIN reports how a DELETE selects
// its rows, mirroring the runtime choice.
func TestExplainDeleteRowSelection(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE big (rid INTEGER, v INTEGER)`)
	mustExec(t, db, `CREATE TABLE doomed (rid INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_big_rid ON big (rid)`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, `INSERT INTO big VALUES (?, ?)`, relation.Int(int64(i)), relation.Int(int64(i%7)))
	}
	mustExec(t, db, `INSERT INTO doomed VALUES (3), (50)`)
	for _, c := range []struct{ q, want string }{
		{`DELETE FROM big t WHERE EXISTS (SELECT 1 FROM doomed x WHERE x.rid = t.rid)`, "semi-join row selection"},
		{`DELETE FROM big WHERE v = 3`, "planned row selection"},
		{`DELETE FROM big`, "full table delete (no filter)"},
	} {
		plan, err := db.Explain(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(plan, "DELETE big\n") || !strings.Contains(plan, c.want) {
			t.Fatalf("%s: want %q in\n%s", c.q, c.want, plan)
		}
	}
	plan, _ := db.Explain(`DELETE FROM big t WHERE EXISTS (SELECT 1 FROM doomed x WHERE x.rid = t.rid)`)
	if !strings.Contains(plan, "index probe t via idx_big_rid (binary search)") {
		t.Fatalf("the semi-join does not reach big through its RID index:\n%s", plan)
	}
	if n := mustExec(t, db, `DELETE FROM big t WHERE EXISTS (SELECT 1 FROM doomed x WHERE x.rid = t.rid)`); n != 2 {
		t.Fatalf("deleted %d rows, want 2", n)
	}
	if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM big WHERE rid = 3 OR rid = 50`)); got != "0" {
		t.Fatalf("doomed rows survive: %s", got)
	}
}

// TestEqProbeOrderedVsMap: an exact-cover index answers a join's
// equality probe by binary search over its ordered positions until
// its equality map exists, then through the map. Both agree with the
// nested loop — over duplicate keys, NULLs, mixed numeric kinds, and
// after a DELETE remapped both structures out of position order.
func TestEqProbeOrderedVsMap(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE d (k REAL, v INTEGER)`)
	mustExec(t, db, `CREATE TABLE p (k INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_d_k ON d (k)`)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		k := relation.Float(float64(rng.Intn(40)))
		if i%37 == 0 {
			k = relation.Null()
		}
		mustExec(t, db, `INSERT INTO d VALUES (?, ?)`, k, relation.Int(int64(i)))
	}
	for _, k := range []int64{0, 3, 3, 17, 39, 99} {
		mustExec(t, db, `INSERT INTO p VALUES (?)`, relation.Int(k))
	}
	mustExec(t, db, `INSERT INTO p VALUES (NULL)`)
	const join = `SELECT p.k, d.v FROM p, d WHERE d.k = p.k`
	check := func(stage string, wantBinary bool) {
		t.Helper()
		plan, err := db.Explain(join)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "(binary search)") != wantBinary {
			t.Fatalf("%s: binary search = %v, want %v:\n%s", stage, !wantBinary, wantBinary, plan)
		}
		planned, nested := runBothPaths(t, db, join)
		if planned != nested {
			t.Fatalf("%s: planned %q vs nested %q", stage, planned, nested)
		}
	}
	check("ordered", true)
	mustExec(t, db, `DELETE FROM d WHERE v < 40 OR v = 150`)
	check("ordered after delete", true)
	// A decorrelated EXISTS probes the same index through its map.
	mustQuery(t, db, `SELECT k FROM p WHERE EXISTS (SELECT 1 FROM d WHERE d.k = p.k)`)
	check("map", false)
	mustExec(t, db, `DELETE FROM d WHERE v > 280`)
	check("map after delete", false)
}
