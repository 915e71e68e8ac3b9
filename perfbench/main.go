// Command perfbench is the repository benchmark. It runs one workload
// against the detection library or the HTTP service, checks every
// result against the naive internal/core oracle, and prints one JSON
// line of metrics:
//
//	perfbench --workload batch|incremental|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans at every layer boundary and reports the per-layer
// metrics derived from them. See README.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// noisePct is the share of generated tuples corrupted to violate Σ.
	noisePct = 5
	// setupReps is how often an untraced run sets its workload up;
	// setup_s is the median.
	setupReps = 7
)

// The library loops interleave the other operation kinds with their
// own at fixed ratios, so that every kind is sampled across the whole
// window: the host's speed drifts over tens of seconds, and a kind
// timed in one burst would see only one point of that drift.
//
// Each ratio is the smallest that gives its kind enough samples in a
// 20 s window for the statistic reported from them to repeat: the
// statistic's own sampling error may add at most about 6% to the
// run-to-run spread (a third of the 25% bound is 8.3%, shared in
// quadrature with the host's drift), and at least 20 samples. Measured
// within single seed-1 runs on a 2-core Xeon @ 2.10GHz VM, as
// (interquartile range)/median r for a p50, which needs (21r)²
// samples, and standard deviation/mean v for a mean, which needs
// (23v)²:
//
//	batch, 96 BatchDetects per window: check mean v = 1.18 → 740
//	samples, 8 per run; violations p50 r = 0.34 → 51, 1 per run;
//	update p50 r = 0.15 → 20 (the floor), an update and its undo
//	before every 8th run (24).
//	incremental, 113 updates per window: check mean v = 0.78 → 320,
//	3 per update; violations p50 r = 0.26 → 30, 1 per update;
//	BatchDetect p50 r = 0.25 → 28, after every 4th update.
const (
	batchChecksPerCycle = 8 // batch: checks after each BatchDetect
	incChecksPerCycle   = 3 // incremental: checks after each update (each stages through the WAL)
	violationsPerCycle  = 1 // violation-set reads after each loop op
	batchPairEvery      = 8 // batch: an update and its undo before every 8th BatchDetect
	incDetectEvery      = 4 // incremental: a BatchDetect after every 4th update
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // scratch and trace output directory
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "batch, incremental or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the data, the op choice and the delete picks")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_out", "directory for scratch files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	h := &harness{cfg: cfg, lat: make(map[string][]time.Duration)}
	w, err := newWorkload(cfg, h)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	env := describeEnv(cfg, w.size())
	line, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", line)

	res, err := execute(cfg, h, w)
	for _, p := range h.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, _ = json.Marshal(h.summary)
	fmt.Fprintf(stdout, "samples %s\n", line)
	line, _ = json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// workload is one benchmark workload. A run sets it up, generates the
// window's inputs, loops its operations for the timed window, checks
// the state against the oracle, runs its end-of-run checks, and
// finally tears it down.
type workload interface {
	size() int // |D| at set-up
	// setup performs one full set-up.
	setup() error
	// prepare generates the inputs the timed window consumes.
	prepare() error
	// loop runs operations until the deadline. It returns how many of
	// its own ops completed and the time ops_per_s divides them by.
	// Each op's latency goes to the harness.
	loop(tr *tracer, deadline time.Time) (ops int, busy time.Duration, err error)
	// dropInputs releases what prepare generated.
	dropInputs()
	// verify checks the current state against the oracle.
	verify(stage string) error
	// layers measures the per-layer metrics no loop span gives.
	layers(tr *tracer, win windowStats, out map[string]float64) error
	// engineStats reads the engine's epoch sequence, live epochs and
	// retired bytes.
	engineStats() (seq uint64, live int, retired int64, err error)
	// finish runs the end-of-run checks.
	finish(tr *tracer, out map[string]float64) error
	// close releases the set-up instance and its files; it is safe to
	// call twice.
	close()
}

// harness is the state shared by a run's phases: latency samples by
// operation kind and the op/failure accounting.
type harness struct {
	cfg       config
	lat       map[string][]time.Duration
	attempted int64
	failed    int64
	problems  []string
	wal       *walSplit // durable loops: the last window's log accounting
	summary   summary
}

// summary is printed after a run, before the result line: the sample
// count and quartiles of every op kind the windows timed, and for the
// durable loop how its log split between the updates and the other ops.
type summary struct {
	Kinds map[string]kindStats `json:"kinds"`
	WAL   *walSplit            `json:"wal,omitempty"`
}

type kindStats struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25_ms"`
	P50 float64 `json:"p50_ms"`
	P75 float64 `json:"p75_ms"`
}

// walSplit is a window's WAL accounting.
type walSplit struct {
	UpdateBytes int64 `json:"update_bytes"` // appended by the updates
	OtherBytes  int64 `json:"other_bytes"`  // appended by the interleaved ops
	Checkpoints int64 `json:"checkpoints"`
}

func (h *harness) summarize() {
	h.summary = summary{Kinds: make(map[string]kindStats), WAL: h.wal}
	for kind, ds := range h.lat {
		h.summary.Kinds[kind] = kindStats{N: len(ds), P25: quantile(ds, 0.25), P50: quantile(ds, 0.5), P75: quantile(ds, 0.75)}
	}
}

func newWorkload(cfg config, h *harness) (workload, error) {
	switch cfg.workload {
	case "batch":
		return &batchWorkload{h: h}, nil
	case "incremental":
		return &incWorkload{h: h}, nil
	case "serve":
		return &serveWorkload{h: h}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want batch, incremental or serve)", cfg.workload)
}

// record adds one completed op of the given kind.
func (h *harness) record(kind string, d time.Duration) {
	h.attempted++
	h.lat[kind] = append(h.lat[kind], d)
}

// fail counts one attempted op that failed or returned a wrong answer.
func (h *harness) fail(format string, args ...any) {
	h.attempted++
	h.failed++
	if len(h.problems) < 20 {
		h.problems = append(h.problems, fmt.Sprintf(format, args...))
	}
}

// windowStats describes one timed window.
type windowStats struct {
	ops  int
	busy time.Duration
}

func (w windowStats) opsPerSec() float64 { return float64(w.ops) / w.busy.Seconds() }

func window(w workload, tr *tracer, d time.Duration) (windowStats, error) {
	runtime.GC()
	ops, busy, err := w.loop(tr, time.Now().Add(d))
	if err != nil {
		return windowStats{}, err
	}
	if ops == 0 {
		return windowStats{}, fmt.Errorf("no operation completed in the %s window", d)
	}
	return windowStats{ops: ops, busy: busy}, nil
}

func execute(cfg config, h *harness, w workload) (*result, error) {
	defer w.close()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	length := time.Duration(cfg.seconds) * time.Second

	var tr *tracer
	var base windowStats
	if cfg.trace {
		// The untraced reference window: the traced window's ops/s is
		// compared with it to give the tracing overhead.
		var err error
		if base, err = window(w, nil, length); err != nil {
			return nil, err
		}
		tr = newTracer()
	}
	win, err := window(w, tr, length)
	if err != nil {
		return nil, err
	}
	w.dropInputs()
	h.summarize()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	heapMB := float64(m.HeapAlloc) / 1e6

	if err := w.verify("after the window"); err != nil {
		h.fail("%v", err)
	}
	layer := make(map[string]float64)
	if cfg.trace {
		if err := w.layers(tr, win, layer); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	// Every op has returned: no snapshot may still be pinned.
	if _, live, _, err := w.engineStats(); err != nil {
		return nil, err
	} else if live != 1 {
		h.fail("%d live epochs after the load stopped, want 1 (a snapshot pin leaked)", live)
	}
	if err := w.finish(tr, layer); err != nil {
		h.fail("%v", err)
	}

	res := &result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: map[string]metric{}}
	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":           medianFloat(setups),
			"heap_mb":           heapMB,
			"ops_per_s":         win.opsPerSec(),
			"detect_p50_ms":     median(h.lat["detect"]),
			"update_p50_ms":     median(h.lat["update"]),
			"check_p50_ms":      median(h.lat["check"]),
			"check_mean_ms":     mean(h.lat["check"]),
			"violations_p50_ms": median(h.lat["violations"]),
		}
		if err := fill(res, vals, endToEnd); err != nil {
			return nil, err
		}
		return res, nil
	}

	layer["trace.overhead_pct"] = (base.opsPerSec()/win.opsPerSec() - 1) * 100
	if err := microProbes(layer); err != nil {
		return nil, fmt.Errorf("micro probes: %w", err)
	}
	if err := tr.write(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if err := fill(res, layer, perLayer); err != nil {
		return nil, err
	}
	return res, nil
}

// fill copies the catalog's metrics into the result, refusing a
// missing or non-finite value and one the catalog does not name.
func fill(res *result, vals map[string]float64, catalog []metricDef) error {
	units := make(map[string]string, len(catalog))
	for _, d := range catalog {
		units[d.name] = d.unit
	}
	var bad []string
	for k := range vals {
		if _, ok := units[k]; !ok {
			bad = append(bad, k+" (not in the catalog)")
		}
	}
	for _, d := range catalog {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, d.name+" (no measurement)")
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics: %s", strings.Join(bad, ", "))
	}
	return nil
}
