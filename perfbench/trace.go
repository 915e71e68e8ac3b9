package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. All spans of one
// operation share Req; Parent is the ID of the span that caused this
// one (0 for an operation's root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // payload bytes, where a span moves any
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the measured code
// pays one nil check per boundary.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	reqs   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// req allocates the identifier shared by the spans of one operation.
func (t *tracer) req() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(name string, req, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{
		ID: t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: time.Since(t.origin).Nanoseconds(),
	}}
}

func (o openSpan) id() int64 { return o.s.ID }

// end closes the span, recording bytes moved across the boundary.
func (o openSpan) end(bytes int64) {
	if o.t == nil {
		return
	}
	o.s.End = time.Since(o.t.origin).Nanoseconds()
	o.s.Bytes = bytes
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// named returns the closed spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// meanBytes is the mean payload of the spans.
func meanBytes(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var n int64
	for _, s := range spans {
		n += s.Bytes
	}
	return float64(n) / float64(len(spans))
}

// selfTimes pairs each parent span with its child spans called child
// and returns the parent's duration minus the children's: the time the
// parent's layer spent outside the child layer.
func (t *tracer) selfTimes(parent, child string) []time.Duration {
	kids := make(map[int64]time.Duration)
	for _, s := range t.named(child) {
		kids[s.Parent] += s.dur()
	}
	var out []time.Duration
	for _, s := range t.named(parent) {
		if k, ok := kids[s.ID]; ok {
			out = append(out, s.dur()-k)
		}
	}
	return out
}

// waits returns, for each span named name, how long it overlapped a
// span of one of the holders' names that started before it: with one
// lock shared by those requests and at most one other request in
// flight per client, the time it could only have spent waiting for
// the lock.
func (t *tracer) waits(name string, holders ...string) []time.Duration {
	var held []span
	for _, h := range holders {
		held = append(held, t.named(h)...)
	}
	sort.Slice(held, func(a, b int) bool { return held[a].Start < held[b].Start })
	// maxEnd[i] is the latest end among held[:i+1].
	maxEnd := make([]int64, len(held))
	for i, s := range held {
		maxEnd[i] = s.End
		if i > 0 && maxEnd[i-1] > s.End {
			maxEnd[i] = maxEnd[i-1]
		}
	}
	var out []time.Duration
	for _, s := range t.named(name) {
		n := sort.Search(len(held), func(i int) bool { return held[i].Start >= s.Start })
		var wait int64
		if n > 0 {
			wait = min(s.End, maxEnd[n-1]) - s.Start
		}
		out = append(out, time.Duration(max(wait, 0)))
	}
	return out
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(path.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Headers carrying the client span across the loopback hop, so the
// server-side span joins the client's operation.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// tracedHandler wraps the server's http.Handler with one span per
// request, named server.<last path element> (server.check, ...).
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	sp := th.tr.begin("server."+path.Base(r.URL.Path), req, parent)
	th.h.ServeHTTP(w, r)
	sp.end(0)
}
