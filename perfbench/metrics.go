package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"

	"ecfd/internal/sqldb"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library or the service sees,
// reported by every untraced run. Every workload issues every
// operation kind on its own engine and transport; see README.md for
// which kinds each one loops on and which it interleaves.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"detect_p50_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"check_p50_ms", "ms"},
	{"check_mean_ms", "ms"},
	{"violations_p50_ms", "ms"},
}

// perLayer are the metrics of single layers, reported by every traced
// run. README.md maps each to the end-to-end metric and workload it
// should move.
var perLayer = []metricDef{
	// server: HTTP + JSON, admission and the per-session lock.
	{"server.check.handler_ms", "ms"},
	{"server.check.handler_p99_ms", "ms"},
	{"server.check.lock_wait_ms", "ms"},
	{"server.updates.handler_ms", "ms"},
	{"server.violations.handler_ms", "ms"},
	{"net.check.transport_ms", "ms"},
	{"client.check_p99_ms", "ms"},
	{"server.check.bytes_per_op", "B"},
	{"server.violations.bytes_per_op", "B"},
	{"server.queued_max", "count"},
	// detect: the library calls.
	{"detect.batch_detect_ms", "ms"},
	{"detect.counts_ms", "ms"},
	{"detect.apply_updates_ms", "ms"},
	{"detect.apply_updates_p90_ms", "ms"},
	{"detect.check_ms", "ms"},
	{"detect.violations_ms", "ms"},
	{"detect.batch_residual_ms", "ms"},
	// sqldb: the statements of BatchDetect run one at a time, parse
	// and plan cache, MVCC epochs.
	{"sqldb.stmt.reset_flags_ms", "ms"},
	{"sqldb.stmt.qsv_update_ms", "ms"},
	{"sqldb.stmt.qmv_insert_ms", "ms"},
	{"sqldb.stmt.mv_update_ms", "ms"},
	{"sqldb.stmt.reset_flags.rows", "count"},
	{"sqldb.stmt.qsv_update.rows", "count"},
	{"sqldb.stmt.qmv_insert.rows", "count"},
	{"sqldb.stmt.mv_update.rows", "count"},
	{"sqldb.parse_us", "us"},
	{"sqldb.prepare_cached_us", "us"},
	{"sqldb.epochs_per_op", "count"},
	{"sqldb.pin_us", "us"},
	{"sqldb.retired_bytes_max", "B"},
	// sqldriver + database/sql.
	{"sqldriver.overhead_us", "us"},
	// wal: the durable engine's log and checkpoints.
	{"wal.bytes_per_op", "B"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.checkpoints", "count"},
	{"wal.recover_ms", "ms"},
	// runtime: per op of the traced window.
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	// The traced window's ops/s against the untraced window's.
	{"trace.overhead_pct", "%"},
}

// envInfo is printed before the result line of every run: what the
// figures were measured on.
type envInfo struct {
	Nproc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	CPU             string `json:"cpu"`
	GoVersion       string `json:"go_version"`
	Workload        string `json:"workload"`
	Seed            int64  `json:"seed"`
	Seconds         int    `json:"seconds"`
	Trace           bool   `json:"trace"`
	Rows            int    `json:"rows"`
	Fsync           string `json:"fsync"`
	CheckpointBytes int    `json:"checkpoint_update_bytes"` // update log between checkpoints
	Note            string `json:"note"`
}

func describeEnv(cfg config, rows int) envInfo {
	return envInfo{
		Nproc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		CPU:             cpuModel(),
		GoVersion:       runtime.Version(),
		Workload:        cfg.workload,
		Seed:            cfg.seed,
		Seconds:         cfg.seconds,
		Trace:           cfg.trace,
		Rows:            rows,
		Fsync:           fmt.Sprintf("%s every %d commit units", sqldb.FsyncBatched, fsyncEvery),
		CheckpointBytes: checkpointBytes,
		Note: "latencies are this machine's; WAL fsyncs land in the OS page cache " +
			"and file system of the host, not on a dedicated device",
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo where there is
// one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
