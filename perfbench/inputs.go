package main

import (
	"encoding/json"
	"math/rand"

	"ecfd/internal/core"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
)

const (
	// batchRows is |D| for batch and incremental; serveRows is the
	// served session's |D| (the size the service smoke test uses).
	batchRows = 20_000
	serveRows = 10_000
	// opTuples is the tuples per check and the inserts and deletes per
	// update.
	opTuples = 8
	// checkPool is how many distinct check batches rotate.
	checkPool = 64
	// updatesPerSecond bounds the ΔD⁺ batches generated per second of
	// window; a loop that uses them all up ends its window early.
	updatesPerSecond = 500
)

// checkBatch is one pre-generated check request: the tuples, the
// pre-marshaled request body, and the oracle's SV verdict per tuple.
type checkBatch struct {
	rel  *relation.Relation
	body []byte
	sv   []bool
}

// makeChecks generates the rotating check batches. They are fresh
// tuples from a seed and phone-number range disjoint from D's.
func makeChecks(seed int64) []checkBatch {
	pool := gen.Dataset(gen.Config{Rows: checkPool * opTuples, Noise: noisePct, Seed: seed + 7919, PNBase: 900_000_000})
	sigma := gen.Constraints()
	out := make([]checkBatch, checkPool)
	for i := range out {
		rel := relation.New(pool.Schema)
		rel.Rows = pool.Rows[i*opTuples : (i+1)*opTuples]
		sv := make([]bool, opTuples)
		for j, t := range rel.Rows {
			sv[j] = !core.SatisfiesTuple(rel.Schema, t, sigma)
		}
		body, _ := json.Marshal(map[string]any{"rows": rowsJSON(rel)})
		out[i] = checkBatch{rel: rel, body: body, sv: sv}
	}
	return out
}

// makeInserts generates n ΔD⁺ batches of opTuples tuples for a D
// generated with rows and seed; batch indexes start at first, so
// callers sharing one D draw disjoint phone-number ranges.
func makeInserts(rows int, seed int64, first, n int) []*relation.Relation {
	cfg := gen.Config{Rows: rows, Noise: noisePct, Seed: seed}
	out := make([]*relation.Relation, n)
	for i := range out {
		out[i] = gen.Updates(cfg, opTuples, int64(first+i))
	}
	return out
}

// rowsJSON renders tuples as the wire protocol's rows: one JSON array
// per tuple.
func rowsJSON(rel *relation.Relation) [][]any {
	out := make([][]any, rel.Len())
	for i, t := range rel.Rows {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = cellJSON(v)
		}
		out[i] = row
	}
	return out
}

func cellJSON(v relation.Value) any {
	switch v.K {
	case relation.KindNull:
		return nil
	case relation.KindInt:
		return v.I
	case relation.KindBool:
		return v.I != 0
	case relation.KindFloat:
		return v.F
	default:
		return v.S
	}
}

// userBytes is the size of the user data in an update: the value
// bytes of the inserted tuples plus eight bytes per deleted RID.
func userBytes(ins *relation.Relation, dels int) int64 {
	n := int64(8 * dels)
	for _, t := range ins.Rows {
		for _, v := range t {
			if v.K == relation.KindText {
				n += int64(len(v.S))
			} else {
				n += 8
			}
		}
	}
	return n
}

// liveSet holds the RIDs an op stream may delete and picks them with
// its own seeded RNG.
type liveSet struct {
	rids []int64
	rng  *rand.Rand
}

func newLiveSet(seed int64) *liveSet { return &liveSet{rng: rand.New(rand.NewSource(seed))} }

func (l *liveSet) add(rids ...int64) { l.rids = append(l.rids, rids...) }

// pick removes and returns n RIDs chosen at random.
func (l *liveSet) pick(n int) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n && len(l.rids) > 0 {
		i := l.rng.Intn(len(l.rids))
		out = append(out, l.rids[i])
		last := len(l.rids) - 1
		l.rids[i] = l.rids[last]
		l.rids = l.rids[:last]
	}
	return out
}
