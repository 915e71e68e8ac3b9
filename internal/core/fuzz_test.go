package core

import (
	"testing"

	"ecfd/internal/relation"
)

// FuzzParseSpec feeds arbitrary bytes to the constraint language, which
// the service accepts over HTTP. ParseSpec must either return an error
// or constraints that re-validate cleanly and render with String();
// it must never panic. Each input is parsed twice: standalone, as the
// service does, and over a predeclared cust schema, so inputs written
// for ParseConstraints reach the tableau parser too.
//
//	go test -run '^$' -fuzz FuzzParseSpec -fuzztime 30s ./internal/core/
func FuzzParseSpec(f *testing.F) {
	for _, src := range []string{
		specSrc,
		fig2Source,
		`ecfd e on cust: [CT] -> [AC] { (_ || _) }`,
		`cfd c1 on cust: [CT] -> [AC] { (Albany || '518') (_ || _) }`,
		`cfd c on cust: [CT] -> [] ; [AC] { ({NYC} || {212}) }`,
		"table m (K text, N int, F real)\necfd e1 on m: [K] -> [N, F] {\n  (abc || {1, 2, 3}, _)\n  ('with space' || !{7}, 2.5)\n}\n",
		"# leading comment\necfd on cust: [CT] -> [AC] { # inline\n (_ || _) # trailing\n}\n# done",
		`table t (A int in {1}, B text) ecfd e on t: [A] -> [B] { (_ || _) }`,
		`table t (A text, A text) ecfd e on t: [A] -> [] { (_ || ) }`,
		`ecfd on cust: [CT] -> [AC] { ('abc || _) }`,
		`ecfd on cust: [CT] -> [AC] { ({} || _) }`,
		`%%%`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, pre := range []map[string]*relation.Schema{nil, {"cust": CustSchema()}} {
			spec, err := ParseSpec(src, pre)
			if err != nil {
				continue
			}
			for _, e := range spec.Constraints {
				if err := e.Validate(); err != nil {
					t.Fatalf("ParseSpec accepted a constraint that fails Validate: %v\nsource: %q", err, src)
				}
				_ = e.String()
			}
		}
	})
}
