package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestParseRecordsProcs(t *testing.T) {
	for _, tc := range []struct {
		line  string
		procs int
	}{
		{"BenchmarkConcurrentDetect/workers=2-4   \t      15\t  60400000 ns/op", 4},
		{"BenchmarkBatchDetect10k   \t      15\t  79000000 ns/op", 1},
	} {
		b, err := parse(bufio.NewScanner(strings.NewReader("cpu: Test CPU\n" + tc.line + "\n")))
		if err != nil {
			t.Fatal(err)
		}
		if b.Procs != tc.procs {
			t.Errorf("%q: procs = %d, want %d", tc.line, b.Procs, tc.procs)
		}
		if len(b.MsPerOp) != 1 {
			t.Errorf("%q: parsed %v, want one benchmark with the suffix stripped", tc.line, b.MsPerOp)
		}
	}
}

// A baseline written before procs was recorded still loads, as 0.
func TestBaselineWithoutProcsLoads(t *testing.T) {
	var b Baseline
	if err := json.Unmarshal([]byte(`{"host": "h", "ms_per_op": {"BenchmarkFig5a": 1.5}}`), &b); err != nil {
		t.Fatal(err)
	}
	if b.Procs != 0 || b.MsPerOp["BenchmarkFig5a"] != 1.5 {
		t.Errorf("loaded %+v", b)
	}
}
