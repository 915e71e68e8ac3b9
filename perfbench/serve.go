package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/server"
)

const (
	// serveClients is the closed loop's client count: one per core of
	// the 2-core host the benchmark was sized on, each a pipeline stage
	// waiting for its reply.
	serveClients = 2
	// serveUpdatesPerSecond bounds the update bodies generated per
	// client and second of window.
	serveUpdatesPerSecond = 50
	// The window runs in serveSlices slices with serveDetectsPerSlice
	// detect calls after each, so detect is sampled across the window
	// like the library loops' interleaved kinds. Its p50 has r = 0.28
	// (see the ratios in main.go), which needs (21r)² = 35 samples.
	serveSlices          = 8
	serveDetectsPerSlice = 4
)

// serveDeck is one round of a client's ops in hundredths of the mix:
// 90 checks, 8 violations streams and 2 updates. A client deals its
// ops from the deck in an order its seed shuffles, so every seed runs
// the exact mix: with independent draws the number of updates, which
// set check_mean_ms through the checks that wait behind them, would
// vary from seed to seed.
var serveDeck = slices.Concat(
	slices.Repeat([]string{"check"}, 90),
	slices.Repeat([]string{"updates"}, 2),
	slices.Repeat([]string{"violations"}, 8),
)

// serveWorkload is the service: an in-process server.New on a loopback
// listener with one gen-backed session at |D| = 10k, driven by a closed
// loop of serveClients clients. Each client deals its next op from its
// seeded deck: 90% check of 8 tuples, 8% full violations stream, 2%
// updates of 8 inserts plus 8 deletes of RIDs that client owns; detect
// runs with the clients paused between slices of the window. Checks and
// updates share one session lock (violation streams read a snapshot
// without it), so a check that waits behind an update adds to
// check_mean_ms and sets the check tail.
type serveWorkload struct {
	h *harness

	srv     *server.Server
	hs      *http.Server
	served  chan struct{} // closed when the HTTP server has stopped
	client  *http.Client  // the closed loop's requests
	admin   *http.Client  // set-up and /healthz, on connections of its own
	base    string        // http://host:port
	sessURL string
	tracing atomic.Pointer[tracer] // the traced window's tracer, else nil

	m       *mirror
	checks  []checkBatch
	clients []*serveClient

	queuedMax, retiredMax int64  // traced windows: sampled from /healthz
	cost                  opCost // traced windows: the whole mix, per request
}

// serveClient is one closed-loop client's op stream and its results,
// merged into the harness after each window.
type serveClient struct {
	rng     *rand.Rand
	deck    []string // serveDeck, in this round's order
	dealt   int
	owned   *liveSet // RIDs this client may delete
	ins     []*relation.Relation
	insJSON [][]byte
	next    int
	ops     int

	lat     map[string][]time.Duration
	checks  []checkRec
	applied []appliedUpdate
	errs    []string
}

type checkRec struct {
	batch int
	sv    []bool
	d     time.Duration
}

type appliedUpdate struct {
	rids []int64
	ins  *relation.Relation
	del  []int64
}

func (w *serveWorkload) size() int { return serveRows }

func (w *serveWorkload) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if tr := w.tracing.Load(); tr != nil {
		tracedHandler{h: w.srv, tr: tr}.ServeHTTP(rw, r)
		return
	}
	w.srv.ServeHTTP(rw, r)
}

func (w *serveWorkload) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = server.New(server.Options{})
	w.hs = &http.Server{Handler: w}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.hs.Serve(ln)
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true},
	}
	w.admin = &http.Client{Timeout: time.Minute, Transport: &http.Transport{}}
	return nil
}

// setup starts the server and creates the session: the server
// generates and loads D, then the first detect establishes the flags.
func (w *serveWorkload) setup() error {
	if err := w.start(); err != nil {
		return err
	}
	var info server.SessionInfo
	req := server.CreateSessionRequest{Gen: &server.GenSpec{Rows: serveRows, Noise: noisePct, Seed: w.h.cfg.seed}}
	if err := w.call("POST", w.base+"/v1/sessions", req, &info); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	w.sessURL = w.base + "/v1/sessions/" + info.ID
	return w.call("POST", w.sessURL+"/detect", nil, nil)
}

func (w *serveWorkload) close() {
	if w.hs == nil {
		return
	}
	w.hs.Close()
	<-w.served
	w.srv.Close()
	w.client.CloseIdleConnections()
	w.admin.CloseIdleConnections()
	w.hs = nil
}

// prepare builds the client-side mirror of the session's D, the check
// bodies, and per client its RNG, owned RIDs and update bodies.
func (w *serveWorkload) prepare() error {
	windows := 1
	if w.h.cfg.trace {
		windows = 2
	}
	w.prepareClients(windows * w.h.cfg.seconds * serveUpdatesPerSecond)
	return nil
}

func (w *serveWorkload) prepareClients(updates int) {
	seed := w.h.cfg.seed
	w.m = newMirror(gen.Dataset(gen.Config{Rows: serveRows, Noise: noisePct, Seed: seed}))
	w.checks = makeChecks(seed)
	w.clients = make([]*serveClient, serveClients)
	for c := range w.clients {
		cl := &serveClient{
			rng:   rand.New(rand.NewSource(seed*1000 + int64(c))),
			owned: newLiveSet(seed*1000 + 500 + int64(c)),
			ins:   makeInserts(serveRows, seed, c*1_000_000, updates),
			lat:   make(map[string][]time.Duration),
		}
		for rid := int64(c + 1); rid <= serveRows; rid += serveClients {
			cl.owned.add(rid)
		}
		for _, rel := range cl.ins {
			b, _ := json.Marshal(rowsJSON(rel))
			cl.insJSON = append(cl.insJSON, b)
		}
		w.clients[c] = cl
	}
}

func (w *serveWorkload) dropInputs() {
	for _, c := range w.clients {
		c.ins, c.insJSON = nil, nil
	}
}

// loop runs the clients in serveSlices slices of the window. After
// each slice it merges their results (each check's SV verdicts are
// compared with the oracle, each acknowledged update goes into the
// mirror) and runs the slice's detect calls with the clients paused.
// ops_per_s divides the requests by the time the clients ran.
func (w *serveWorkload) loop(tr *tracer, deadline time.Time) (int, time.Duration, error) {
	w.tracing.Store(tr)
	defer w.tracing.Store(nil)
	var m0, m1 runtime.MemStats
	var seq0, seq1 uint64
	if tr != nil {
		runtime.ReadMemStats(&m0)
		var err error
		if seq0, _, _, err = w.engineStats(); err != nil {
			return 0, 0, err
		}
	}
	slice := time.Until(deadline) / serveSlices
	ops := 0
	var busy time.Duration
	for i := 0; i < serveSlices; i++ {
		stop := make(chan struct{})
		var wg, sampler sync.WaitGroup
		if tr != nil {
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				w.sampleHealth(stop)
			}()
		}
		t0 := time.Now()
		end := t0.Add(slice)
		for _, c := range w.clients {
			wg.Add(1)
			go func(c *serveClient) {
				defer wg.Done()
				w.runClient(c, tr, end)
			}(c)
		}
		wg.Wait()
		busy += time.Since(t0)
		close(stop)
		sampler.Wait()
		ops += w.merge()
		if err := w.detects(tr, serveDetectsPerSlice); err != nil {
			return 0, 0, err
		}
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		var err error
		if seq1, _, _, err = w.engineStats(); err != nil {
			return 0, 0, err
		}
		w.cost = opCost{
			n: uint64(ops), allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
			pauseNs: m1.PauseTotalNs - m0.PauseTotalNs, epochs: seq1 - seq0,
		}
	}
	return ops, busy, nil
}

func (w *serveWorkload) runClient(c *serveClient, tr *tracer, deadline time.Time) {
	for time.Now().Before(deadline) {
		switch c.nextOp() {
		case "check":
			w.checkOp(c, tr, c.rng.Intn(len(w.checks)))
		case "violations":
			w.violationsOp(c, tr)
		default:
			if !w.updateOp(c, tr) {
				return // update bodies used up: this client's window ends
			}
		}
		c.ops++
	}
}

// nextOp deals the client's next op, shuffling a fresh round of the
// deck when the last one is used up.
func (c *serveClient) nextOp() string {
	if c.dealt == len(c.deck) {
		c.deck = append(c.deck[:0], serveDeck...)
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
		c.dealt = 0
	}
	c.dealt++
	return c.deck[c.dealt-1]
}

func (w *serveWorkload) merge() int {
	ops := 0
	for _, c := range w.clients {
		ops += c.ops
		c.ops = 0
		for kind, ds := range c.lat {
			for _, d := range ds {
				w.h.record(kind, d)
			}
		}
		for _, rec := range c.checks {
			if err := w.checkVerdicts(rec); err != nil {
				w.h.fail("%v", err)
				continue
			}
			w.h.record("check", rec.d)
		}
		for _, u := range c.applied {
			w.m.insert(u.rids, u.ins)
			w.m.delete(u.del)
		}
		for _, e := range c.errs {
			w.h.fail("%s", e)
		}
		c.lat = make(map[string][]time.Duration)
		c.checks, c.applied, c.errs = nil, nil, nil
	}
	return ops
}

func (w *serveWorkload) checkVerdicts(rec checkRec) error {
	want := w.checks[rec.batch].sv
	if len(rec.sv) != len(want) {
		return fmt.Errorf("check batch %d: %d verdicts for %d tuples", rec.batch, len(rec.sv), len(want))
	}
	for j := range want {
		if rec.sv[j] != want[j] {
			return fmt.Errorf("check batch %d tuple %d: SV %v, oracle %v", rec.batch, j, rec.sv[j], want[j])
		}
	}
	return nil
}

// roundTrip sends one request and reads the whole reply. Its latency
// runs from sending the request to reading the reply's last byte. The
// reply is kept only when keep is set.
func (w *serveWorkload) roundTrip(tr *tracer, name, method, url string, body []byte, keep bool) ([]byte, time.Duration, error) {
	req := tr.req()
	sp := tr.begin("client."+name, req, 0)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		r.Header.Set("Content-Type", "application/json")
	}
	if tr != nil {
		r.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		r.Header.Set(hdrSpan, strconv.FormatInt(sp.id(), 10))
	}
	t0 := time.Now()
	resp, err := w.client.Do(r)
	if err != nil {
		return nil, 0, err
	}
	var reply []byte
	var n int64
	if keep {
		reply, err = io.ReadAll(resp.Body)
		n = int64(len(reply))
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	d := time.Since(t0)
	sp.end(int64(len(body)) + n)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, reply)
	}
	return reply, d, nil
}

func (w *serveWorkload) checkOp(c *serveClient, tr *tracer, i int) {
	reply, d, err := w.roundTrip(tr, "check", "POST", w.sessURL+"/check", w.checks[i].body, true)
	if err != nil {
		c.errs = append(c.errs, "check: "+err.Error())
		return
	}
	var resp server.CheckResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		c.errs = append(c.errs, "check reply: "+err.Error())
		return
	}
	rec := checkRec{batch: i, d: d, sv: make([]bool, len(resp.Results))}
	for j, v := range resp.Results {
		rec.sv[j] = v.SV
	}
	c.checks = append(c.checks, rec)
}

func (w *serveWorkload) violationsOp(c *serveClient, tr *tracer) {
	_, d, err := w.roundTrip(tr, "violations", "GET", w.sessURL+"/violations", nil, false)
	if err != nil {
		c.errs = append(c.errs, "violations: "+err.Error())
		return
	}
	c.lat["violations"] = append(c.lat["violations"], d)
}

// updateOp sends the client's next update. It reports false when the
// client's update bodies are used up.
func (w *serveWorkload) updateOp(c *serveClient, tr *tracer) bool {
	if c.next >= len(c.ins) {
		return false
	}
	ins, insJSON := c.ins[c.next], c.insJSON[c.next]
	c.next++
	del := c.owned.pick(opTuples)
	delJSON, _ := json.Marshal(del)
	body := fmt.Appendf(nil, `{"insert":%s,"delete":%s}`, insJSON, delJSON)
	reply, d, err := w.roundTrip(tr, "updates", "POST", w.sessURL+"/updates", body, true)
	var resp server.UpdatesResponse
	if err == nil {
		err = json.Unmarshal(reply, &resp)
	}
	if err == nil && resp.Inserted.Count != int64(ins.Len()) {
		err = fmt.Errorf("%d rows inserted, sent %d", resp.Inserted.Count, ins.Len())
	}
	if err != nil {
		c.owned.add(del...)
		c.errs = append(c.errs, "updates: "+err.Error())
		return true
	}
	rids := make([]int64, ins.Len())
	for i := range rids {
		rids[i] = resp.Inserted.FirstRID + int64(i)
	}
	c.owned.add(rids...)
	c.applied = append(c.applied, appliedUpdate{rids: rids, ins: ins, del: del})
	c.lat["update"] = append(c.lat["update"], d)
	return true
}

// sampleHealth polls /healthz until stop closes, keeping the largest
// admission queue and retired-epoch bytes seen.
func (w *serveWorkload) sampleHealth(stop <-chan struct{}) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		var hr server.HealthResponse
		if err := w.call("GET", w.base+"/healthz", nil, &hr); err != nil {
			continue
		}
		if hr.Queued > w.queuedMax {
			w.queuedMax = hr.Queued
		}
		for _, s := range hr.Sessions {
			if s.Engine.RetiredBytes > w.retiredMax {
				w.retiredMax = s.Engine.RetiredBytes
			}
		}
	}
}

func (w *serveWorkload) engineStats() (uint64, int, int64, error) {
	var hr server.HealthResponse
	if err := w.call("GET", w.base+"/healthz", nil, &hr); err != nil {
		return 0, 0, 0, err
	}
	if len(hr.Sessions) != 1 {
		return 0, 0, 0, fmt.Errorf("healthz lists %d sessions, want 1", len(hr.Sessions))
	}
	e := hr.Sessions[0].Engine
	return e.EpochSeq, e.LiveEpochs, e.RetiredBytes, nil
}

// verify reads the whole violation stream and compares it with the
// oracle over the client-side mirror: the same RIDs, flags and values.
func (w *serveWorkload) verify(stage string) error {
	want, err := w.m.oracleFlags(gen.Constraints())
	if err != nil {
		return err
	}
	reply, _, err := w.roundTrip(nil, "violations", "GET", w.sessURL+"/violations", nil, true)
	if err != nil {
		return fmt.Errorf("%s: %w", stage, err)
	}
	var doc struct {
		Rows  [][]any `json:"rows"`
		Count int     `json:"count"`
	}
	dec := json.NewDecoder(bytes.NewReader(reply))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("%s: violations stream: %w", stage, err)
	}
	got := make(map[int64][2]bool, len(doc.Rows))
	width := w.m.schema.Width()
	for _, row := range doc.Rows {
		if len(row) != width+3 {
			return fmt.Errorf("%s: violations row has %d cells, want %d", stage, len(row), width+3)
		}
		rid, err1 := row[0].(json.Number).Int64()
		sv, err2 := row[width+1].(json.Number).Int64()
		mv, err3 := row[width+2].(json.Number).Int64()
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("%s: violations row %v: bad RID or flags", stage, row[:1])
		}
		got[rid] = [2]bool{sv == 1, mv == 1}
		t, ok := w.m.rows[rid]
		if !ok {
			continue // diffFlags reports the RID
		}
		for j, v := range t {
			if row[j+1] != cellJSON(v) {
				return fmt.Errorf("%s: violations row RID %d column %d is %v, mirror has %v", stage, rid, j, row[j+1], cellJSON(v))
			}
		}
	}
	if doc.Count != len(doc.Rows) {
		return fmt.Errorf("%s: violations stream counts %d rows, carries %d", stage, doc.Count, len(doc.Rows))
	}
	if d := diffFlags(got, violatingOnly(want)); d != "" {
		return fmt.Errorf("%s: violations stream differs from the oracle: %s", stage, d)
	}
	return nil
}

// detects runs detect over HTTP n times with the clients paused, so
// that its 90 ms under the session lock does not shape the mix; each
// run must count what the oracle counts over the mirror.
func (w *serveWorkload) detects(tr *tracer, n int) error {
	want, err := w.m.oracleFlags(gen.Constraints())
	if err != nil {
		return err
	}
	var sv, mv, total int64
	for _, f := range want {
		if f[0] {
			sv++
		}
		if f[1] {
			mv++
		}
		if f[0] || f[1] {
			total++
		}
	}
	for i := 0; i < n; i++ {
		reply, d, err := w.roundTrip(tr, "detect", "POST", w.sessURL+"/detect", nil, true)
		var resp server.DetectResponse
		if err == nil {
			err = json.Unmarshal(reply, &resp)
		}
		switch {
		case err != nil:
			w.h.fail("detect: %v", err)
		case resp.SV != sv || resp.MV != mv || resp.Total != total:
			w.h.fail("detect counted (SV %d, MV %d, total %d), oracle (%d, %d, %d)", resp.SV, resp.MV, resp.Total, sv, mv, total)
		default:
			w.h.record("detect", d)
		}
	}
	return nil
}

func (w *serveWorkload) finish(*tracer, map[string]float64) error { return nil }

// layers derives the server metrics from the window's spans and
// measures the library layers on a replica detector of the session's
// D fed the same check bodies, and the WAL on a durable replica.
func (w *serveWorkload) layers(tr *tracer, _ windowStats, out map[string]float64) error {
	w.serverLayers(tr, out)
	costLayers(w.cost, out)
	out["client.check_p99_ms"] = quantile(durations(tr.named("client.check")), 0.99)
	out["sqldb.retired_bytes_max"] = float64(w.retiredMax)
	if err := replicaProbe(w.h, tr, out); err != nil {
		return err
	}
	return walProbe(w.h, serveRows, out)
}

// serverLayers derives the server-layer metrics from client and
// handler spans and the admission queue sampled from /healthz.
func (w *serveWorkload) serverLayers(tr *tracer, out map[string]float64) {
	handler := durations(tr.named("server.check"))
	out["server.check.handler_ms"] = median(handler)
	out["server.check.handler_p99_ms"] = quantile(handler, 0.99)
	out["server.check.lock_wait_ms"] = mean(tr.waits("server.check", "server.check", "server.updates", "server.detect"))
	out["server.updates.handler_ms"] = median(durations(tr.named("server.updates")))
	out["server.violations.handler_ms"] = median(durations(tr.named("server.violations")))
	out["net.check.transport_ms"] = median(tr.selfTimes("client.check", "server.check"))
	out["server.check.bytes_per_op"] = meanBytes(tr.named("client.check"))
	out["server.violations.bytes_per_op"] = meanBytes(tr.named("client.violations"))
	out["server.queued_max"] = float64(w.queuedMax)
}

// call is a plain JSON request outside any measurement, on the admin
// client so it never takes one of the closed loop's connections.
func (w *serveWorkload) call(method, url string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := w.admin.Do(r)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, raw)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}
