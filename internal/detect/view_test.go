package detect

import (
	"database/sql"
	"database/sql/driver"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ecfd/internal/core"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// checkOracle answers Check's contract from core's semantics over one
// state of D: SV when the tuple alone violates some pattern tuple; MV
// when it falls into a group — a pattern tuple's LHS match with given
// X-values — whose members in D disagree on Y (an Aux(D) group).
type checkOracle struct {
	schema *relation.Schema
	sigma  []*core.ECFD
	bad    map[string]bool // violating groups, keyed by groupKey
}

func groupKey(e *core.ECFD, ei, pi int, t relation.Tuple) string {
	vals := make([]relation.Value, len(e.X))
	for i, a := range e.X {
		vals[i] = t[e.Schema.Index(a)]
	}
	return fmt.Sprintf("%d/%d/%s", ei, pi, relation.KeyOf(vals))
}

func newCheckOracle(schema *relation.Schema, sigma []*core.ECFD, rows []relation.Tuple) *checkOracle {
	o := &checkOracle{schema: schema, sigma: sigma, bad: make(map[string]bool)}
	for ei, e := range sigma {
		if len(e.Y) == 0 {
			continue
		}
		for pi := range e.Tableau {
			firstY := make(map[string]string)
			for _, t := range rows {
				if !e.MatchesLHS(t, pi) {
					continue
				}
				ys := make([]relation.Value, len(e.Y))
				for i, a := range e.Y {
					ys[i] = t[schema.Index(a)]
				}
				gk, yk := groupKey(e, ei, pi, t), relation.KeyOf(ys)
				if y, ok := firstY[gk]; !ok {
					firstY[gk] = yk
				} else if y != yk {
					o.bad[gk] = true
				}
			}
		}
	}
	return o
}

func (o *checkOracle) verdict(t relation.Tuple) CheckResult {
	r := CheckResult{SV: !core.SatisfiesTuple(o.schema, t, o.sigma)}
	for ei, e := range o.sigma {
		for pi := range e.Tableau {
			if len(e.Y) > 0 && e.MatchesLHS(t, pi) && o.bad[groupKey(e, ei, pi, t)] {
				r.MV = true
			}
		}
	}
	return r
}

// walBytes sums the bytes of every WAL file on the MemFS.
func walBytes(t *testing.T, fs *sqldb.MemFS) int {
	t.Helper()
	names, err := fs.ReadDir("/wal")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if strings.HasPrefix(name, "wal-") {
			b, err := fs.ReadFile("/wal/" + name)
			if err != nil {
				t.Fatal(err)
			}
			n += len(b)
		}
	}
	return n
}

// TestCheckWritesNothing pins the advisory check as a pure read on a
// durable engine: across 100 checks of random batches the engine
// publishes no epoch and the WAL does not grow by a byte, and every
// verdict matches core's semantics of the current state.
func TestCheckWritesNothing(t *testing.T) {
	fs := sqldb.NewMemFS(43)
	d, db, dsn := openDurableDetector(t, fs)
	defer sqldriver.Unregister(dsn)
	defer db.Close()
	d.SetAtomicUpdates(true)
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	cfg := gen.Config{Rows: 600, Noise: 10, Seed: 13}
	data := gen.Dataset(cfg)
	if _, err := d.LoadData(data); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	oracle := newCheckOracle(d.schema, d.sigma, data.Rows)

	mvRows := mvMembers(t, oracle, data)

	seq0, wal0 := d.eng.Stats().EpochSeq, walBytes(t, fs)
	rng := rand.New(rand.NewSource(13))
	var sv, mv int
	for i := 0; i < 100; i++ {
		// Fresh tuples at 30% noise plus a copy of a stored tuple and of
		// a member of a violating group, so both verdicts come out true
		// as well as false.
		batch := gen.Updates(gen.Config{Rows: cfg.Rows, Noise: 30, Seed: cfg.Seed}, 6, int64(i))
		batch.Rows = append(batch.Rows, data.Rows[rng.Intn(data.Len())], mvRows[rng.Intn(len(mvRows))])
		got, err := d.Check(batch)
		if err != nil {
			t.Fatal(err)
		}
		for j, row := range batch.Rows {
			want := oracle.verdict(row)
			if got[j] != want {
				t.Fatalf("check %d tuple %d: verdict %+v, oracle %+v (row %v)", i, j, got[j], want, row)
			}
			if want.SV {
				sv++
			}
			if want.MV {
				mv++
			}
		}
	}
	if sv == 0 || mv == 0 {
		t.Fatalf("vacuous: %d SV and %d MV verdicts in 800 tuples", sv, mv)
	}
	if seq := d.eng.Stats().EpochSeq; seq != seq0 {
		t.Fatalf("100 checks published %d epochs", seq-seq0)
	}
	if wal := walBytes(t, fs); wal != wal0 {
		t.Fatalf("100 checks appended %d WAL bytes", wal-wal0)
	}
}

// mvMembers returns the tuples of data that fall into a violating
// group, failing the test when there are none.
func mvMembers(t *testing.T, o *checkOracle, data *relation.Relation) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	for _, row := range data.Rows {
		if o.verdict(row).MV {
			out = append(out, row)
		}
	}
	if len(out) == 0 {
		t.Fatal("vacuous: the data has no violating group")
	}
	return out
}

// viewState is one committed state of the stress test's D: the
// check oracle over it and the violation set it must render.
type viewState struct {
	oracle *checkOracle
	vio    string
}

// renderFlags renders (RID, SV, MV) triples of flagged rows, by RID.
func renderFlags(flags map[int64][2]bool) string {
	rids := make([]int64, 0, len(flags))
	for rid, f := range flags {
		if f[0] || f[1] {
			rids = append(rids, rid)
		}
	}
	sort.Slice(rids, func(a, b int) bool { return rids[a] < rids[b] })
	var b strings.Builder
	for _, rid := range rids {
		fmt.Fprintf(&b, "%d:%v:%v ", rid, flags[rid][0], flags[rid][1])
	}
	return b.String()
}

// TestCommittedViewStress races four checkers and a violations reader
// against a writer looping ApplyUpdates and BatchDetect (run it under
// -race). Every read must reflect one committed state: SV verdicts are
// exact, MV verdicts and the violation set match the oracle of a state
// the writer committed while the read was in flight — the state before
// or after an overlapping call, never one in between. At the end no
// pin is left: the engine holds exactly one live epoch.
func TestCommittedViewStress(t *testing.T) {
	const rows, calls = 800, 24
	cfg := gen.Config{Rows: rows, Noise: 20, Seed: 21}
	data := gen.Dataset(cfg)
	d := newDetector(t, gen.Constraints(), data)
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}

	// Plan the writer's calls up front — RIDs are assigned in order, so
	// the state after every call is known — and build each state's
	// oracle.
	rng := rand.New(rand.NewSource(21))
	mirror := make(map[int64]relation.Tuple, rows)
	for i, row := range data.Rows {
		mirror[int64(i+1)] = row
	}
	nextRID := int64(rows)
	stateOf := func() viewState {
		rids := make([]int64, 0, len(mirror))
		for rid := range mirror {
			rids = append(rids, rid)
		}
		sort.Slice(rids, func(a, b int) bool { return rids[a] < rids[b] })
		inst := relation.New(data.Schema)
		for _, rid := range rids {
			inst.Rows = append(inst.Rows, mirror[rid])
		}
		v, err := core.NaiveDetect(inst, d.sigma)
		if err != nil {
			t.Fatal(err)
		}
		flags := make(map[int64][2]bool, len(rids))
		for i, rid := range rids {
			flags[rid] = [2]bool{v.SV[i], v.MV[i]}
		}
		return viewState{oracle: newCheckOracle(d.schema, d.sigma, inst.Rows), vio: renderFlags(flags)}
	}
	type call struct {
		ins *relation.Relation // nil with del nil: a BatchDetect
		del []int64
	}
	plan := make([]call, calls)
	states := []viewState{stateOf()}
	for k := range plan {
		if k%3 == 2 {
			states = append(states, states[len(states)-1])
			continue
		}
		live := make([]int64, 0, len(mirror))
		for rid := range mirror {
			live = append(live, rid)
		}
		sort.Slice(live, func(a, b int) bool { return live[a] < live[b] })
		c := call{ins: gen.Updates(cfg, 4, int64(k)), del: gen.DeleteSample(rng, live, 4)}
		for _, rid := range c.del {
			delete(mirror, rid)
		}
		for _, row := range c.ins.Rows {
			nextRID++
			mirror[nextRID] = row
		}
		plan[k] = c
		states = append(states, stateOf())
	}

	// Candidate batches: fresh tuples plus copies of stored ones and of
	// violating-group members, some of which the writer deletes while
	// the checks run.
	mvRows := mvMembers(t, states[0].oracle, data)
	batches := make([]*relation.Relation, 12)
	for i := range batches {
		b := gen.Updates(gen.Config{Rows: rows, Noise: 30, Seed: 5}, 5, int64(i))
		b.Rows = append(b.Rows, data.Rows[rng.Intn(rows)], mvRows[rng.Intn(len(mvRows))], mvRows[rng.Intn(len(mvRows))])
		batches[i] = b
	}

	// done counts the writer's returned calls. A read that starts with
	// done = a and ends with done = b saw the committed state of some
	// call count in [a, b+1]: the call in flight at its end may have
	// committed before the writer counted it.
	var done atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	var checks, reads atomic.Int64
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	window := func(a, b int64) []viewState {
		hi := b + 1
		if hi > calls {
			hi = calls
		}
		return states[a : hi+1]
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; !stop.Load(); i++ {
				batch := batches[i%len(batches)]
				a := done.Load()
				got, err := d.Check(batch)
				b := done.Load()
				if err != nil {
					fail("check: %v", err)
					return
				}
				matched := false
				for _, st := range window(a, b) {
					same := true
					for j, row := range batch.Rows {
						if got[j] != st.oracle.verdict(row) {
							same = false
						}
					}
					matched = matched || same
				}
				// SV depends on Σ alone, so it must be exact whatever
				// state the check saw.
				for j, row := range batch.Rows {
					if want := states[0].oracle.verdict(row).SV; got[j].SV != want {
						fail("checker %d: tuple %d SV %v, oracle %v", c, j, got[j].SV, want)
					}
				}
				if !matched {
					fail("checker %d: verdicts %+v match no committed state in calls [%d, %d]", c, got, a, b+1)
				}
				checks.Add(1)
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			a := done.Load()
			vio, err := d.Violations()
			b := done.Load()
			if err != nil {
				fail("violations: %v", err)
				return
			}
			flags := make(map[int64][2]bool, vio.Len())
			w := vio.Schema.Width()
			for _, row := range vio.Rows {
				flags[row[0].I] = [2]bool{row[w-2].I == 1, row[w-1].I == 1}
			}
			got := renderFlags(flags)
			matched := false
			for _, st := range window(a, b) {
				matched = matched || st.vio == got
			}
			if !matched {
				fail("violations read between calls %d and %d matches no committed state (%d rows)", a, b+1, vio.Len())
			}
			reads.Add(1)
		}
	}()

	for k, c := range plan {
		if stop.Load() {
			break
		}
		var err error
		if c.ins == nil {
			_, err = d.BatchDetect()
		} else {
			_, _, err = d.ApplyUpdates(c.ins, c.del)
		}
		if err != nil {
			fail("writer call %d: %v", k, err)
			break
		}
		done.Add(1)
	}
	stop.Store(true)
	wg.Wait()
	if checks.Load() == 0 || reads.Load() == 0 {
		t.Fatalf("vacuous: %d checks and %d violation reads overlapped the writer", checks.Load(), reads.Load())
	}
	if st := d.eng.Stats(); st.LiveEpochs != 1 || st.RetiredEpochs != 0 {
		t.Fatalf("a pin outlived the readers: %+v", st)
	}
	t.Logf("%d checks and %d violation reads against %d writer calls", checks.Load(), reads.Load(), calls)
}

// otherDriver is a database/sql driver that is not sqldriver.
type otherDriver struct{}

func (otherDriver) Open(string) (driver.Conn, error) { return otherConn{}, nil }

type otherConn struct{}

func (otherConn) Prepare(string) (driver.Stmt, error) { return nil, fmt.Errorf("unsupported") }
func (otherConn) Close() error                        { return nil }
func (otherConn) Begin() (driver.Tx, error)           { return nil, fmt.Errorf("unsupported") }

func init() { sql.Register("detect_other_driver", otherDriver{}) }

// TestNewRejectsOtherDrivers pins New's one way to reach the engine:
// through the sqldriver connection behind the handle. A handle of any
// other driver is refused up front, not at the first read.
func TestNewRejectsOtherDrivers(t *testing.T) {
	db, err := sql.Open("detect_other_driver", "x")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := New(db, gen.Schema(), gen.Constraints()); err == nil || !strings.Contains(err.Error(), sqldriver.DriverName) {
		t.Fatalf("New over another driver: err = %v, want a refusal naming %s", err, sqldriver.DriverName)
	}
}
