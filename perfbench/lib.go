package main

import (
	"database/sql"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// checkpointBytes is how much WAL the updates append between two
// checkpoints of a durable engine: about 25 updates of 8 inserts and 8
// deletes (3.9 KB each), so a 20 s incremental window takes three to
// five. The engine's own size trigger is off, because it counts every
// op's log bytes and the interleaved BatchDetects (about 170 KB each,
// rewriting every flag) and checks would set the cadence. Instead the
// update whose log bytes reach the threshold takes the checkpoint, and
// its latency includes it, as it would under the engine's trigger.
const checkpointBytes = 96 << 10

// fsyncEvery is the durable engines' sync interval in commit units.
const fsyncEvery = 32

var dsnSeq atomic.Int64

// libEngine is a detector reached by library calls: an engine
// registered with the database/sql driver, the handle, and the
// detector installed and loaded on it.
type libEngine struct {
	dsn    string
	db     *sql.DB
	eng    *sqldb.DB
	det    *detect.Detector
	walDir string   // "" for a volatile engine
	fs     *countFS // durable engines: counts WAL and snapshot bytes
}

// openEngine opens a volatile engine, or a durable one when walDir is
// set, and a database/sql handle on it. The durable engine syncs its
// WAL every fsyncEvery commit units (fsync=batched): with fsync=always every
// Check pays two fsyncs, and the fsync latency of a shared virtual disk
// moved the incremental check_mean_ms by 34% between runs.
func openEngine(walDir string) (*libEngine, error) {
	e := &libEngine{dsn: fmt.Sprintf("perfbench_%d", dsnSeq.Add(1)), walDir: walDir}
	if walDir == "" {
		e.eng = sqldb.NewDB()
	} else {
		e.fs = &countFS{WALFS: sqldb.OSFS{}}
		eng, err := sqldb.Open(sqldb.WALOptions{
			Dir: walDir, FS: e.fs, Fsync: sqldb.FsyncBatched, FsyncEvery: fsyncEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("open durable engine: %w", err)
		}
		e.eng = eng
	}
	sqldriver.RegisterDB(e.dsn, e.eng)
	db, err := sql.Open(sqldriver.DriverName, e.dsn)
	if err != nil {
		sqldriver.Unregister(e.dsn)
		return nil, err
	}
	e.db = db
	return e, nil
}

// setupEngine is one full set-up of a library workload: generate D,
// open the engine, install Σ, load D and run the first BatchDetect.
func setupEngine(rows int, seed int64, walDir string) (*libEngine, *relation.Relation, detect.BatchStats, error) {
	data := gen.Dataset(gen.Config{Rows: rows, Noise: noisePct, Seed: seed})
	e, err := openEngine(walDir)
	if err != nil {
		return nil, nil, detect.BatchStats{}, err
	}
	fail := func(err error) (*libEngine, *relation.Relation, detect.BatchStats, error) {
		e.close()
		return nil, nil, detect.BatchStats{}, err
	}
	if e.det, err = detect.New(e.db, gen.Schema(), gen.Constraints()); err != nil {
		return fail(err)
	}
	if err := e.det.Install(); err != nil {
		return fail(err)
	}
	// On a durable engine every update is one WAL commit unit.
	e.det.SetAtomicUpdates(walDir != "")
	if _, err := e.det.LoadData(data); err != nil {
		return fail(err)
	}
	st, err := e.det.BatchDetect()
	if err != nil {
		return fail(err)
	}
	return e, data, st, nil
}

// reopen closes a durable engine and recovers it from its WAL
// directory: Open replays the log, and a fresh detector Resumes on the
// recovered tables.
func (e *libEngine) reopen() (*libEngine, error) {
	e.close()
	n, err := openEngine(e.walDir)
	if err != nil {
		return nil, err
	}
	if n.det, err = detect.New(n.db, gen.Schema(), gen.Constraints()); err != nil {
		n.close()
		return nil, err
	}
	n.det.SetAtomicUpdates(true)
	if err := n.det.Resume(); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// close releases the handle and the engine; a durable engine syncs and
// closes its WAL. The WAL directory stays for reopen.
func (e *libEngine) close() {
	if e.db != nil {
		e.db.Close()
		e.db = nil
	}
	sqldriver.Unregister(e.dsn)
}

// checkFlags compares the detector's flags with the oracle's.
func checkFlags(det *detect.Detector, want map[int64][2]bool) error {
	got, err := det.FlagsByRID()
	if err != nil {
		return err
	}
	if d := diffFlags(got, want); d != "" {
		return fmt.Errorf("flags differ from the oracle: %s", d)
	}
	return nil
}

// countFS counts the bytes the durable engine writes, split into WAL
// appends and checkpoint snapshots, and the checkpoints taken.
type countFS struct {
	sqldb.WALFS
	walBytes, snapBytes, checkpoints atomic.Int64
}

func (c *countFS) Create(p string) (sqldb.WALFile, error) {
	f, err := c.WALFS.Create(p)
	if err != nil {
		return nil, err
	}
	return c.wrap(p, f), nil
}

func (c *countFS) OpenAppend(p string) (sqldb.WALFile, error) {
	f, err := c.WALFS.OpenAppend(p)
	if err != nil {
		return nil, err
	}
	return c.wrap(p, f), nil
}

func (c *countFS) wrap(p string, f sqldb.WALFile) sqldb.WALFile {
	base := p[strings.LastIndexByte(p, '/')+1:]
	switch {
	case strings.HasPrefix(base, "snap-"):
		c.checkpoints.Add(1)
		return &countFile{WALFile: f, n: &c.snapBytes}
	case strings.HasPrefix(base, "wal-"):
		return &countFile{WALFile: f, n: &c.walBytes}
	}
	return f
}

type countFile struct {
	sqldb.WALFile
	n *atomic.Int64
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.WALFile.Write(p)
	f.n.Add(int64(n))
	return n, err
}

// scratchDir makes a fresh directory under the run's output directory.
func scratchDir(out, prefix string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, prefix)
}
