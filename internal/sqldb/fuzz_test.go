package sqldb_test

import (
	"database/sql"
	"testing"

	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// FuzzParse feeds arbitrary text to the SQL lexer and parser, which
// read every statement the engine runs — the REPL's input included.
// Parse and ParseScript must either return an error or statements; they
// must never panic, and they must agree on single statements. The
// corpus is seeded with the detector's generated statements, which
// exercise the parser's deepest shapes (correlated EXISTS, CASE,
// derived tables, GROUP BY/HAVING), plus edge cases.
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 30s ./internal/sqldb/
func FuzzParse(f *testing.F) {
	db, err := sql.Open(sqldriver.DriverName, "sqldb_fuzz_parse")
	if err != nil {
		f.Fatal(err)
	}
	defer sqldriver.Unregister("sqldb_fuzz_parse")
	defer db.Close()
	d, err := detect.New(db, gen.Schema(), gen.Constraints())
	if err != nil {
		f.Fatal(err)
	}
	qsvSelect, qsvUpdate, qmvInsert, mvUpdate := d.SQL()
	qsvSlice, qmvRange, mvSlice := d.ParallelSQL()
	keysFromDel, deleteRows, auxRecompute, mvSetOld, mvClear := d.IncrementalSQL()
	for _, src := range []string{
		qsvSelect, qsvUpdate, qmvInsert, mvUpdate,
		qsvSlice, qmvRange, mvSlice,
		keysFromDel, deleteRows, auxRecompute, mvSetOld, mvClear,
		qsvUpdate + ";\n" + mvUpdate,
		"CREATE TABLE t (a INTEGER, b TEXT, c REAL, d BOOLEAN)",
		"CREATE INDEX i ON t (a, b)",
		"DROP TABLE IF EXISTS t",
		"TRUNCATE TABLE t",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (?, ?)",
		"SELECT DISTINCT a, COUNT(*) FROM t WHERE b LIKE 'x%' AND a BETWEEN 1 AND 3 GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 5 OFFSET 1",
		"SELECT * FROM (SELECT a FROM t) s WHERE a IN (SELECT a FROM t) AND a NOT IN (1, 2) AND (SELECT MAX(a) FROM t) > 0",
		"UPDATE t SET a = CASE WHEN a IS NULL THEN 0 ELSE -a END WHERE NOT EXISTS (SELECT 1 FROM t u WHERE u.a = t.a)",
		"DELETE FROM t WHERE a = 1.5e3 OR b = 'it''s'",
		"EXPLAIN SELECT a FROM t",
		"SELECT 'unterminated",
		"SELECT (((((1",
		"SELECT a FROM t WHERE",
		";;;",
		"",
		"\x00\xff",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, errScript := sqldb.ParseScript(src)
		stmt, errOne := sqldb.Parse(src)
		if errScript == nil && len(stmts) == 1 && (errOne != nil || stmt == nil) {
			t.Fatalf("ParseScript parsed one statement but Parse failed (%v)\nsource: %q", errOne, src)
		}
		if errOne == nil && errScript != nil {
			t.Fatalf("Parse succeeded but ParseScript failed (%v)\nsource: %q", errScript, src)
		}
	})
}
