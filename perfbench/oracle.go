package main

import (
	"fmt"
	"sort"
	"strings"

	"ecfd/internal/core"
	"ecfd/internal/relation"
)

// mirror is the benchmark's own copy of D, keyed by RID: what the data
// table must hold after every acknowledged load and update. The oracle
// flags are core.NaiveDetect over it.
type mirror struct {
	schema *relation.Schema
	rows   map[int64]relation.Tuple
}

// newMirror holds data with RIDs 1..n in order, as LoadData assigns
// them on a fresh detector.
func newMirror(data *relation.Relation) *mirror {
	m := &mirror{schema: data.Schema, rows: make(map[int64]relation.Tuple, data.Len())}
	for i, t := range data.Rows {
		m.rows[int64(i+1)] = t
	}
	return m
}

func (m *mirror) insert(rids []int64, batch *relation.Relation) {
	for i, rid := range rids {
		m.rows[rid] = batch.Rows[i]
	}
}

func (m *mirror) delete(rids []int64) {
	for _, rid := range rids {
		delete(m.rows, rid)
	}
}

// oracleFlags runs the naive detector over the mirror and returns the
// (SV, MV) flags of every row by RID.
func (m *mirror) oracleFlags(sigma []*core.ECFD) (map[int64][2]bool, error) {
	rids := make([]int64, 0, len(m.rows))
	for rid := range m.rows {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(a, b int) bool { return rids[a] < rids[b] })
	inst := relation.New(m.schema)
	inst.Rows = make([]relation.Tuple, len(rids))
	for i, rid := range rids {
		inst.Rows[i] = m.rows[rid]
	}
	v, err := core.NaiveDetect(inst, sigma)
	if err != nil {
		return nil, err
	}
	out := make(map[int64][2]bool, len(rids))
	for i, rid := range rids {
		out[rid] = [2]bool{v.SV[i], v.MV[i]}
	}
	return out, nil
}

// diffFlags compares the flags a detector reports with the oracle's.
// It returns "" when they agree on every RID, and otherwise a short
// description of the first differences.
func diffFlags(got, want map[int64][2]bool) string {
	var diffs []string
	if len(got) != len(want) {
		diffs = append(diffs, fmt.Sprintf("%d rows, oracle has %d", len(got), len(want)))
	}
	rids := make([]int64, 0, len(want))
	for rid := range want {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(a, b int) bool { return rids[a] < rids[b] })
	for _, rid := range rids {
		g, ok := got[rid]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("RID %d missing", rid))
		case g != want[rid]:
			diffs = append(diffs, fmt.Sprintf("RID %d flags (SV,MV)=%v, oracle %v", rid, g, want[rid]))
		}
		if len(diffs) >= 5 {
			break
		}
	}
	return strings.Join(diffs, "; ")
}

// violatingOnly keeps the RIDs flagged either way: the rows a
// violations stream must return.
func violatingOnly(flags map[int64][2]bool) map[int64][2]bool {
	out := make(map[int64][2]bool)
	for rid, f := range flags {
		if f[0] || f[1] {
			out[rid] = f
		}
	}
	return out
}
