// Command benchguard turns `go test -bench` output into a committed
// perf baseline and gates regressions against it. It reads standard
// benchmark output on stdin, extracts the tracked detection benchmarks
// (ms/op), and either writes a JSON baseline (-write) or compares the
// measured numbers against a committed baseline (-check), failing when
// any tracked benchmark regresses beyond the tolerance. CI runs the
// check in the bench-smoke step; `make benchbaseline` refreshes the
// committed file after intentional perf changes.
//
// Only regressions fail the check: faster-than-baseline runs pass (and
// print a hint to refresh the baseline), so a fast CI host never blocks
// on a baseline measured on slower hardware.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// tracked are the benchmarks the baseline records — the acceptance
// benchmarks of the detection pipeline plus the worker-scaling series.
var tracked = []string{
	"BenchmarkBatchDetect10k",
	"BenchmarkFig5a",
	"BenchmarkConcurrentDetect/workers=1",
	"BenchmarkConcurrentDetect/workers=2",
	"BenchmarkConcurrentDetect/workers=4",
	"BenchmarkConcurrentDetect/workers=8",
	"BenchmarkMixedRead",
	"BenchmarkServerCheck",
}

// Baseline is the committed JSON shape.
type Baseline struct {
	// Host is the benchmark host's CPU line, informational only — the
	// tolerance, not the host, decides pass/fail.
	Host string `json:"host"`
	// Procs is the GOMAXPROCS the benchmarks ran with: the -N suffix of
	// their names, or 1 when `go test` printed none. Informational like
	// Host; 0 in baselines recorded before the field existed.
	Procs   int                `json:"procs,omitempty"`
	MsPerOp map[string]float64 `json:"ms_per_op"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op`)

func parse(r *bufio.Scanner) (*Baseline, error) {
	b := &Baseline{MsPerOp: map[string]float64{}}
	for r.Scan() {
		line := r.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			b.Host = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchguard: bad ns/op in %q: %w", line, err)
		}
		b.MsPerOp[m[1]] = ns / 1e6
		b.Procs = 1
		if m[2] != "" {
			if b.Procs, err = strconv.Atoi(m[2]); err != nil {
				return nil, fmt.Errorf("benchguard: bad GOMAXPROCS suffix in %q: %w", line, err)
			}
		}
	}
	return b, r.Err()
}

func main() {
	write := flag.String("write", "", "write the parsed numbers as a baseline JSON file")
	check := flag.String("check", "", "compare the parsed numbers against a baseline JSON file")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional regression before -check fails")
	flag.Parse()
	if (*write == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "benchguard: exactly one of -write or -check is required")
		os.Exit(2)
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	got, err := parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	missing := false
	for _, name := range tracked {
		if _, ok := got.MsPerOp[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchguard: tracked benchmark %s missing from input\n", name)
			missing = true
		}
	}
	if missing {
		os.Exit(1)
	}

	if *write != "" {
		keep := &Baseline{Host: got.Host, Procs: got.Procs, MsPerOp: map[string]float64{}}
		for _, name := range tracked {
			keep.MsPerOp[name] = got.MsPerOp[name]
		}
		out, err := json.MarshalIndent(keep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*write, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("benchguard: wrote %s (%d benchmarks, host %q, procs %d)\n", *write, len(keep.MsPerOp), keep.Host, keep.Procs)
		return
	}

	raw, err := os.ReadFile(*check)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", *check, err)
		os.Exit(1)
	}
	baseProcs := "unrecorded"
	if base.Procs > 0 {
		baseProcs = strconv.Itoa(base.Procs)
	}
	fmt.Printf("benchguard: procs %s in baseline, %d in this run\n", baseProcs, got.Procs)
	names := make([]string, 0, len(base.MsPerOp))
	for name := range base.MsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		want := base.MsPerOp[name]
		have, ok := got.MsPerOp[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s in baseline but not measured\n", name)
			failed = true
			continue
		}
		delta := (have - want) / want
		status := "ok"
		if delta > *tolerance {
			status = "REGRESSION"
			failed = true
		} else if delta < -*tolerance {
			status = "improved (consider make benchbaseline)"
		}
		fmt.Printf("benchguard: %-44s %8.1f ms/op vs baseline %8.1f ms/op (%+.0f%%) %s\n",
			name, have, want, delta*100, status)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: regression beyond %.0f%% vs %s (baseline host %q)\n",
			*tolerance*100, *check, base.Host)
		os.Exit(1)
	}
}
