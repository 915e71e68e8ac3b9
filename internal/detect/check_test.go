package detect

import (
	"bytes"
	"fmt"
	"testing"

	"ecfd/internal/gen"
	"ecfd/internal/relation"
)

// TestCheckAgainstAppliedOracle pins the advisory Check verdict to the
// ground truth of actually applying each candidate:
//
//   - SV must match the applied insert's SV flag exactly (SV is a
//     per-tuple property, so the candidates alone answer it losslessly);
//   - MV=true must imply the applied insert gets MV=true (soundness —
//     Check never cries wolf);
//   - a resubmitted copy of a currently MV-flagged row must come back
//     MV=true (completeness against the current Aux);
//   - Check must not disturb the detector state at all.
func TestCheckAgainstAppliedOracle(t *testing.T) {
	const rows = 2_000
	d, cleanup := newBenchDetector(t, rows, 11)
	defer cleanup()
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	before, err := d.FlagsByRID()
	if err != nil {
		t.Fatal(err)
	}
	beforeCSV := violationCSV(t, d)

	// Candidates: fresh generated updates (mix of clean and violating
	// tuples) plus copies of existing rows, indexed by their source RID
	// so flagged copies anchor the completeness assertion.
	cand := gen.Updates(gen.Config{Rows: rows, Noise: 5, Seed: 11}, 24, 1_000_000)
	copySrc := make(map[int]int64) // candidate index -> source RID
	data, err := d.ViolationsVia(d.db)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) < 4 {
		t.Fatal("workload has too few violations; test is vacuous")
	}
	for _, vrow := range data.Rows[:4] {
		rid := vrow[0].I
		copySrc[cand.Len()] = rid
		cand.Rows = append(cand.Rows, vrow[1:1+d.schema.Width()])
	}

	got, err := d.Check(cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cand.Len() {
		t.Fatalf("Check returned %d results for %d tuples", len(got), cand.Len())
	}

	// Check is advisory: flags, Aux and the violation set are untouched.
	after, err := d.FlagsByRID()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("Check changed the row count: %d -> %d", len(before), len(after))
	}
	for rid, w := range before {
		if after[rid] != w {
			t.Fatalf("Check changed flags of RID %d: %v -> %v", rid, w, after[rid])
		}
	}
	if !bytes.Equal(beforeCSV, violationCSV(t, d)) {
		t.Fatal("Check changed the violation set")
	}

	// Completeness against Aux: copies of MV-flagged rows must be MV.
	for i, rid := range copySrc {
		if before[rid][1] && !got[i].MV {
			t.Errorf("candidate %d copies MV-flagged RID %d but Check.MV = false", i, rid)
		}
	}

	// Ground truth per candidate: apply it, read its flags, revert.
	one := relation.New(cand.Schema)
	one.Rows = []relation.Tuple{nil}
	for i, row := range cand.Rows {
		one.Rows[0] = row
		rids, _, err := d.ApplyUpdates(one, nil)
		if err != nil {
			t.Fatal(err)
		}
		flags, err := d.FlagsByRID()
		if err != nil {
			t.Fatal(err)
		}
		applied := flags[rids[0]]
		if got[i].SV != applied[0] {
			t.Errorf("candidate %d: Check.SV = %v, applied SV = %v (row %v)",
				i, got[i].SV, applied[0], row)
		}
		if got[i].MV && !applied[1] {
			t.Errorf("candidate %d: Check.MV = true but applied MV = false (row %v)", i, row)
		}
		if _, err := d.DeleteTuples(rids); err != nil {
			t.Fatal(err)
		}
	}

	// The apply/revert cycles must have restored the original state, or
	// the oracle itself proved nothing.
	if !bytes.Equal(beforeCSV, violationCSV(t, d)) {
		t.Fatal("apply/revert oracle did not restore the violation set")
	}
}

// TestCheckEmptyAndMismatch covers the trivial shapes.
func TestCheckEmptyAndMismatch(t *testing.T) {
	d, cleanup := newBenchDetector(t, 100, 1)
	defer cleanup()
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	empty := relation.New(gen.Schema())
	res, err := d.Check(empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	wrong := relation.New(relation.MustSchema("other",
		relation.Attribute{Name: "A", Kind: relation.KindText}))
	wrong.Rows = append(wrong.Rows, relation.Tuple{relation.Text("x")})
	if _, err := d.Check(wrong); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}

// TestCheckStatementsFixed: the check statements obey the same
// fixedness contract as the rest of the set — their texts depend on the
// schema only, never on |Σ|.
func TestCheckStatementsFixed(t *testing.T) {
	d, cleanup := newBenchDetector(t, 10, 1)
	defer cleanup()
	for _, q := range []string{d.stmts.checkSVRIDs, d.stmts.checkMVRIDs} {
		if q == "" {
			t.Fatal("check statement is empty")
		}
		if want := fmt.Sprintf("FROM %s t", d.insTable); !bytes.Contains([]byte(q), []byte(want)) {
			t.Errorf("check statement does not read the staging table: %s", q)
		}
	}
}
