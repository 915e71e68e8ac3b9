package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestReadsNeverTorn races reads against repeated detect runs. A
// detect run rewrites every flag — reset, SV, Aux, MV, one statement
// at a time — yet leaves the violation set as it was, so every read,
// whenever it lands, must equal the committed set. A read that differs
// saw the script half applied. Both read surfaces are covered: the
// detector's library readers and the streamed GET /violations.
func TestReadsNeverTorn(t *testing.T) {
	c := newTestClient(t, Options{Workers: 4})
	var info SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Gen: &GenSpec{Rows: 5000, Noise: 5, Seed: 3}}, &info)
	base := "/v1/sessions/" + info.ID
	c.mustOK("POST", base+"/detect", nil, nil)
	sess, aerr := c.srv.reg.get(info.ID)
	if aerr != nil {
		t.Fatal(aerr)
	}
	det := sess.det

	// race runs read in a loop while ten detect runs go through the
	// server. read describes a torn result, or returns "" for a read
	// that matched the committed state; any torn read fails the test.
	race := func(t *testing.T, read func() (string, error)) {
		t.Helper()
		var writing atomic.Bool
		writing.Store(true)
		errc := make(chan error, 1)
		go func() {
			defer writing.Store(false)
			for i := 0; i < 10; i++ {
				resp, err := c.ts.Client().Post(c.ts.URL+base+"/detect", "application/json", nil)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("detect: HTTP %d", resp.StatusCode)
					}
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		reads, torn, first := 0, 0, ""
		for writing.Load() {
			msg, err := read()
			if err != nil {
				t.Fatal(err)
			}
			reads++
			if msg != "" {
				if torn == 0 {
					first = msg
				}
				torn++
			}
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if reads == 0 {
			t.Fatal("vacuous: no read overlapped the detect runs")
		}
		if torn > 0 {
			t.Fatalf("%d of %d reads torn; first: %s", torn, reads, first)
		}
	}

	t.Run("library", func(t *testing.T) {
		wantVio, err := det.Violations()
		if err != nil {
			t.Fatal(err)
		}
		wantSV, wantMV, wantTotal, err := det.Counts()
		if err != nil {
			t.Fatal(err)
		}
		wantFlags, err := det.FlagsByRID()
		if err != nil {
			t.Fatal(err)
		}
		step := 0
		race(t, func() (string, error) {
			step++
			switch step % 3 {
			case 0:
				vio, err := det.Violations()
				if err != nil {
					return "", err
				}
				if !reflect.DeepEqual(vio.Rows, wantVio.Rows) {
					return fmt.Sprintf("Violations returned %d rows against %d committed", vio.Len(), wantVio.Len()), nil
				}
			case 1:
				sv, mv, total, err := det.Counts()
				if err != nil {
					return "", err
				}
				if sv != wantSV || mv != wantMV || total != wantTotal {
					return fmt.Sprintf("Counts = (%d, %d, %d) against (%d, %d, %d) committed", sv, mv, total, wantSV, wantMV, wantTotal), nil
				}
			default:
				flags, err := det.FlagsByRID()
				if err != nil {
					return "", err
				}
				if !reflect.DeepEqual(flags, wantFlags) {
					return "FlagsByRID differs from the committed flags", nil
				}
			}
			return "", nil
		})
	})

	t.Run("http", func(t *testing.T) {
		get := func() ([]byte, error) {
			resp, err := c.ts.Client().Get(c.ts.URL + base + "/violations")
			if err != nil {
				return nil, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("violations: HTTP %d", resp.StatusCode)
			}
			return io.ReadAll(resp.Body)
		}
		want, err := get()
		if err != nil {
			t.Fatal(err)
		}
		race(t, func() (string, error) {
			got, err := get()
			if err != nil {
				return "", err
			}
			if !bytes.Equal(got, want) {
				return fmt.Sprintf("stream of %d bytes against %d committed", len(got), len(want)), nil
			}
			return "", nil
		})
	})
}

// TestCheckDoesNotWaitForUpdates parks an update on the session lock —
// the white-box blocking of the queue-full test — and requires a check
// to answer while the update is held there: checks read the committed
// view and take no session lock.
func TestCheckDoesNotWaitForUpdates(t *testing.T) {
	c := newTestClient(t, Options{Workers: 2, QueueDepth: 2})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Gen: &GenSpec{Rows: 200, Noise: 5, Seed: 1}}, &sess)
	base := "/v1/sessions/" + sess.ID
	c.mustOK("POST", base+"/detect", nil, nil)

	unblock := blockSession(t, c, sess.ID)
	released := false
	defer func() {
		if !released {
			unblock()
		}
	}()
	updBody, _ := json.Marshal(UpdatesRequest{Insert: [][]any{genRow()}})
	updDone := make(chan int, 1)
	go func() {
		resp, err := c.ts.Client().Post(c.ts.URL+base+"/updates", "application/json", bytes.NewReader(updBody))
		if err != nil {
			updDone <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		updDone <- resp.StatusCode
	}()
	waitFor(t, time.Second, func() bool { return c.srv.adm.inflight.Load() == 1 })

	checkBody, _ := json.Marshal(RowsPayload{Rows: [][]any{genRow(), genRow()}})
	checked := make(chan CheckResponse, 1)
	go func() {
		var out CheckResponse
		resp, err := c.ts.Client().Post(c.ts.URL+base+"/check", "application/json", bytes.NewReader(checkBody))
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		checked <- out
	}()
	select {
	case out := <-checked:
		if len(out.Results) != 2 {
			t.Fatalf("check answered %d verdicts for 2 tuples", len(out.Results))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("check waited behind the update held at the session lock")
	}
	select {
	case <-updDone:
		t.Fatal("the update finished while the session lock was held")
	default:
	}
	released = true
	unblock()
	if status := <-updDone; status != http.StatusOK {
		t.Fatalf("update after release: HTTP %d", status)
	}
}

// TestRequestRowCap requires load, check and updates bodies above
// maxRequestRows to fail with a typed bad_request naming the cap, and
// bodies at the cap to pass.
func TestRequestRowCap(t *testing.T) {
	c := newTestClient(t, Options{})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Gen: &GenSpec{Rows: 50, Noise: 5, Seed: 1}}, &sess)
	base := "/v1/sessions/" + sess.ID
	c.mustOK("POST", base+"/detect", nil, nil)

	rows := func(n int) [][]any {
		out := make([][]any, n)
		for i := range out {
			out[i] = genRow()
		}
		return out
	}
	over := rows(maxRequestRows + 1)
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/load", RowsPayload{Rows: over}},
		{"/check", RowsPayload{Rows: over}},
		{"/updates", UpdatesRequest{Insert: over}},
		{"/updates", UpdatesRequest{Insert: rows(maxRequestRows), Delete: []int64{1}}},
	} {
		raw, _ := json.Marshal(tc.body)
		resp, err := c.ts.Client().Post(c.ts.URL+base+tc.path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != CodeBadRequest {
			t.Fatalf("%s over the cap: HTTP %d %+v, want 400 %s", tc.path, resp.StatusCode, env.Error, CodeBadRequest)
		}
		if !strings.Contains(env.Error.Message, fmt.Sprint(maxRequestRows)) {
			t.Fatalf("%s: error %q does not name the cap", tc.path, env.Error.Message)
		}
	}
	var out CheckResponse
	c.mustOK("POST", base+"/check", RowsPayload{Rows: rows(maxRequestRows)}, &out)
	if len(out.Results) != maxRequestRows {
		t.Fatalf("check at the cap answered %d verdicts", len(out.Results))
	}
}
