package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// streamPage is the keyset page size: large enough to amortize the
// per-page flush, small enough that a cancelled client stops the read
// within one page.
const streamPage = 2048

// doViolations streams the violation set as one JSON document:
//
//	{"columns": ["RID", ..., "SV", "MV"], "rows": [[...], ...], "count": N}
//
// The whole stream reads the detector's committed view
// (detect.Detector.View), pinned once, so it observes one MVCC
// snapshot — never a mutating call half applied — no matter how many
// updates land while the client drains it. Pagination is keyset
// (RID > last ORDER BY RID), two fixed statement shapes with a literal
// LIMIT so the plan cache serves every page. The deferred Close
// releases the snapshot pin on every exit path — normal completion,
// deadline, and client disconnect alike.
func (s *Server) doViolations(ctx context.Context, sess *session, w http.ResponseWriter, r *http.Request) *APIError {
	lo, hi := int64(0), int64(0)
	bounded := false
	if q := r.URL.Query().Get("lo"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			return apiErrorf(CodeBadRequest, "bad lo %q", q)
		}
		lo = n
	}
	if q := r.URL.Query().Get("hi"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			return apiErrorf(CodeBadRequest, "bad hi %q", q)
		}
		hi, bounded = n, true
	}

	schema := sess.schema()
	cols := make([]string, 0, len(schema.Attrs)+3)
	cols = append(cols, "RID")
	for _, a := range schema.Attrs {
		cols = append(cols, a.Name)
	}
	cols = append(cols, "SV", "MV")

	// Two fixed shapes: open range and bounded range. The LIMIT is a
	// literal on purpose — parameterized LIMITs would defeat the plan
	// cache's one-entry-per-shape design.
	base := fmt.Sprintf("SELECT %s FROM %s WHERE (SV = 1 OR MV = 1) AND RID > ?",
		strings.Join(cols, ", "), sess.det.DataTable())
	tail := fmt.Sprintf(" ORDER BY RID LIMIT %d", streamPage)
	openQ := base + tail
	boundedQ := base + " AND RID <= ?" + tail

	view := sess.det.View()
	defer view.Close()
	page := func(q string, args ...relation.Value) (*sqldb.Result, error) {
		p, err := sess.eng.Prepare(q)
		if err != nil {
			return nil, err
		}
		return p.QueryAt(view, args...)
	}

	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)
	emit := func(p string) bool {
		_, werr := io.WriteString(w, p)
		return werr == nil
	}

	header, _ := json.Marshal(cols)
	if !emit(`{"columns":` + string(header) + `,"rows":[`) {
		return nil
	}

	count, last, first := int64(0), lo, true
	for {
		if ctx.Err() != nil {
			// Deadline or disconnect mid-stream: the body is already
			// partially written, so just stop — the truncated JSON is
			// the client's signal. The deferred Close releases the
			// snapshot.
			return nil
		}
		var res *sqldb.Result
		var err error
		if bounded {
			res, err = page(boundedQ, relation.Int(last), relation.Int(hi))
		} else {
			res, err = page(openQ, relation.Int(last))
		}
		if err != nil {
			return nil // stream already started; terminate silently
		}
		n := 0
		for _, row := range res.Rows {
			out := make([]any, len(row))
			for i, v := range row {
				out[i] = cellJSON(v)
			}
			last = row[0].I
			line, _ := json.Marshal(out)
			sep := ","
			if first {
				sep, first = "", false
			}
			if !emit(sep + string(line)) {
				return nil
			}
			n++
			count++
		}
		if flusher != nil {
			flusher.Flush()
		}
		if n < streamPage {
			break
		}
	}

	emit(fmt.Sprintf(`],"count":%d}`, count))
	if flusher != nil {
		flusher.Flush()
	}
	return nil
}
