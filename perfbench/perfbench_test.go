package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"ecfd/internal/gen"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare
// with the metric catalog.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(what string, catalog []metricDef, listed []struct{ Name, Unit string }) {
		if len(catalog) != len(listed) {
			t.Errorf("%s: catalog has %d metrics, BENCHMARK.json %d", what, len(catalog), len(listed))
			return
		}
		for i, d := range catalog {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s[%d]: catalog %s (%s), BENCHMARK.json %s (%s)", what, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
}

// TestWorkloadsEmitEveryMetric makes a short run of every workload,
// untraced and traced, and checks the result line: the oracle checks
// pass and exactly the catalog's metrics are there, with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, w := range readBenchmarkJSON(t).Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "3", "--trace", trace, "-out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed: %s", w.Name, trace, res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			catalog := endToEnd
			if trace == "1" {
				catalog = perLayer
			}
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if len(got) != len(catalog) {
				t.Errorf("%s trace %s: %d metrics, want %d: %v", w.Name, trace, len(got), len(catalog), got)
			}
			for _, d := range catalog {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestComparatorRejectsFlippedFlag checks that the oracle comparison
// notices one wrong flag and one missing row.
func TestComparatorRejectsFlippedFlag(t *testing.T) {
	m := newMirror(gen.Dataset(gen.Config{Rows: 500, Noise: noisePct, Seed: 5}))
	want, err := m.oracleFlags(gen.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int64][2]bool, len(want))
	for rid, f := range want {
		got[rid] = f
	}
	if d := diffFlags(got, want); d != "" {
		t.Fatalf("identical flags reported as different: %s", d)
	}
	got[7] = [2]bool{!got[7][0], got[7][1]}
	if d := diffFlags(got, want); !strings.Contains(d, "RID 7") {
		t.Errorf("flipped SV of RID 7 not reported: %q", d)
	}
	got[7] = want[7]
	delete(got, 11)
	if d := diffFlags(got, want); !strings.Contains(d, "RID 11 missing") {
		t.Errorf("missing RID 11 not reported: %q", d)
	}
}
