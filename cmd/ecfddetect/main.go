// Command ecfddetect finds eCFD violations in CSV data with the
// SQL-based detectors of §V, running on the embedded in-memory engine
// through database/sql.
//
//	ecfddetect -spec sigma.ecfd -data data.csv                # batch
//	ecfddetect -spec sigma.ecfd -data data.csv -parallel 8    # fan out
//	ecfddetect -spec sigma.ecfd -data data.csv -insert dplus.csv
//	ecfddetect -spec sigma.ecfd -data data.csv -delete 5,9,23
//
// With -insert/-delete, the tool first runs BatchDetect on the base
// data, then applies the updates with the incremental algorithm and
// reports both the incremental time and the final violation counts.
// Violating tuples go to -o (default stdout) as CSV with RID, SV, MV.
package main

import (
	"database/sql"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ecfd"
)

func main() {
	specPath := flag.String("spec", "", "constraint file (tables + eCFDs)")
	dataPath := flag.String("data", "", "CSV instance of the constrained table")
	insertPath := flag.String("insert", "", "CSV batch to insert incrementally")
	deleteList := flag.String("delete", "", "comma-separated RIDs to delete incrementally")
	out := flag.String("o", "-", "violation output CSV ('-' = stdout)")
	quiet := flag.Bool("quiet", false, "suppress the violation listing, print summary only")
	parallel := flag.Int("parallel", 0, "batch detection workers (0 = serial, -1 = GOMAXPROCS)")
	walDir := flag.String("wal", "", "write-ahead-log directory: persist the session and recover it on restart")
	fsync := flag.String("fsync", "", "WAL fsync policy: always (default), batched, off")
	checkpoint := flag.Int64("checkpoint", 4<<20, "WAL bytes between checkpoint snapshots (0 = never; needs -wal)")
	resume := flag.Bool("resume", false, "resume a persisted session from -wal instead of installing and loading -data")
	flag.Parse()
	if *specPath == "" || (*dataPath == "" && !*resume) {
		fmt.Fprintln(os.Stderr, "ecfddetect: -spec and -data are required (-data optional with -resume)")
		os.Exit(2)
	}
	if *resume && *walDir == "" {
		fmt.Fprintln(os.Stderr, "ecfddetect: -resume needs -wal")
		os.Exit(2)
	}

	src, err := os.ReadFile(*specPath)
	if err != nil {
		fail(err)
	}
	spec, err := ecfd.ParseSpec(string(src), nil)
	if err != nil {
		fail(err)
	}
	if len(spec.Constraints) == 0 {
		fail(fmt.Errorf("no constraints in %s", *specPath))
	}
	schema := spec.Constraints[0].Schema
	for _, e := range spec.Constraints {
		if e.Schema.Name != schema.Name {
			fail(fmt.Errorf("all constraints must target one table; got %s and %s", schema.Name, e.Schema.Name))
		}
	}

	var inst *ecfd.Relation
	if *dataPath != "" {
		f, err := os.Open(*dataPath)
		if err != nil {
			fail(err)
		}
		inst, err = readCSV(f, schema)
		f.Close()
		if err != nil {
			fail(err)
		}
	}

	var db *sql.DB
	dsn := "ecfddetect"
	if *walDir != "" {
		db, dsn, err = ecfd.OpenDurable("ecfddetect", *walDir, *fsync, *checkpoint)
		if err != nil {
			fail(err)
		}
		defer ecfd.CloseMemory(dsn)
	} else {
		db, err = ecfd.OpenMemory(dsn)
		if err != nil {
			fail(err)
		}
		defer ecfd.CloseMemory(dsn)
	}
	defer db.Close()

	d, err := ecfd.NewDetector(db, schema, spec.Constraints)
	if err != nil {
		fail(err)
	}
	if *walDir != "" {
		// Each update batch becomes one WAL commit unit: a crash
		// recovers to a batch boundary, never a half-applied update.
		d.SetAtomicUpdates(true)
	}
	if *resume {
		if err := d.Resume(); err != nil {
			fail(err)
		}
		st := ecfd.StatsOf(dsn)
		r := st.Recovery
		fmt.Fprintf(os.Stderr,
			"resume: wal gen %d (snapshot gen %d, units replayed %d, torn tail %v, fell back %v); epoch %d, %d live / %d retired epochs, %d retired bytes\n",
			r.Gen, r.SnapshotGen, r.UnitsReplayed, r.TornTail, r.FellBack,
			st.EpochSeq, st.LiveEpochs, st.RetiredEpochs, st.RetiredBytes)
		if inst != nil {
			if _, err := d.LoadData(inst); err != nil {
				fail(err)
			}
		}
	} else {
		if err := d.Install(); err != nil {
			fail(err)
		}
		if _, err := d.LoadData(inst); err != nil {
			fail(err)
		}
	}
	// run is the detector, with BatchDetect routed through
	// ParallelDetect under -parallel.
	var run runner = d
	mode := "batch"
	if *parallel != 0 {
		run = parallelRunner{d, *parallel}
		mode = "parallel batch"
	}

	nRows := 0
	if inst != nil {
		nRows = inst.Len()
	}
	st, err := run.BatchDetect()
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d rows, %d violations (SV %d, MV %d) in %v\n",
		mode, nRows, st.Total, st.SV, st.MV, st.Elapsed.Round(1e6))

	if *insertPath != "" {
		f, err := os.Open(*insertPath)
		if err != nil {
			fail(err)
		}
		batch, err := readCSV(f, schema)
		f.Close()
		if err != nil {
			fail(err)
		}
		_, ist, err := run.InsertTuples(batch)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "incremental insert: %d tuples in %v\n", ist.Applied, ist.Elapsed.Round(1e6))
	}
	if *deleteList != "" {
		var rids []int64
		for _, s := range strings.Split(*deleteList, ",") {
			rid, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fail(fmt.Errorf("bad RID %q: %w", s, err))
			}
			rids = append(rids, rid)
		}
		ist, err := run.DeleteTuples(rids)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "incremental delete: %d tuples in %v\n", ist.Applied, ist.Elapsed.Round(1e6))
	}

	if *insertPath != "" || *deleteList != "" {
		sv, mv, total, err := run.Counts()
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "after updates: %d violations (SV %d, MV %d)\n", total, sv, mv)
	}

	if *quiet {
		return
	}
	vio, err := run.Violations()
	if err != nil {
		fail(err)
	}
	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := vio.WriteCSV(w); err != nil {
		fail(err)
	}
}

// runner is the detection/maintenance surface the flows above use:
// *ecfd.Detector itself or its parallelRunner form.
type runner interface {
	BatchDetect() (ecfd.BatchStats, error)
	InsertTuples(batch *ecfd.Relation) ([]int64, ecfd.IncStats, error)
	DeleteTuples(rids []int64) (ecfd.IncStats, error)
	Counts() (sv, mv, total int64, err error)
	Violations() (*ecfd.Relation, error)
}

// parallelRunner routes BatchDetect through ParallelDetect with a
// fixed worker count, leaving the rest of the surface untouched.
type parallelRunner struct {
	*ecfd.Detector
	workers int
}

func (p parallelRunner) BatchDetect() (ecfd.BatchStats, error) {
	return p.ParallelDetect(p.workers)
}

func readCSV(r io.Reader, schema *ecfd.Schema) (*ecfd.Relation, error) {
	return ecfd.ReadCSV(r, schema)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ecfddetect:", err)
	os.Exit(1)
}
