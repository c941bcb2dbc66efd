package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"testing"
	"time"
)

// acct is the counter delta one scenario is allowed to cause.
type acct struct {
	queries, engineRuns, errors, rejected, timeouts, disconnects int64
}

func snapshotAcct(m *Metrics) acct {
	return acct{
		queries:     m.Queries.Load(),
		engineRuns:  m.EngineRuns.Load(),
		errors:      m.Errors.Load(),
		rejected:    m.Rejected.Load(),
		timeouts:    m.Timeouts.Load(),
		disconnects: m.ClientDisconnects.Load(),
	}
}

func (a acct) minus(b acct) acct {
	return acct{a.queries - b.queries, a.engineRuns - b.engineRuns, a.errors - b.errors,
		a.rejected - b.rejected, a.timeouts - b.timeouts, a.disconnects - b.disconnects}
}

// parkWorker occupies one scheduler slot until the returned release runs.
func parkWorker(s *Server) (release func()) {
	started := make(chan struct{})
	stop := make(chan struct{})
	go s.sched.Run(context.Background(), func(context.Context) error {
		close(started)
		<-stop
		return nil
	})
	<-started
	return func() { close(stop) }
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *Server) flightCount() int { return s.results.inFlight() }

// TestRequestAccounting sends one query down every way a /sparql
// request can be answered and pins, per way, everything the serving
// pipeline owes the outside: status, X-Cache, which counters move and by
// how much, and the slow-log outcome.
func TestRequestAccounting(t *testing.T) {
	// get answers nil after reporting a transport error: it also runs off
	// the test goroutine, where t.Fatal must not be called.
	get := func(t *testing.T, ts, extra string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts + "/sparql?" + extra + "query=" + url.QueryEscape(pathQuery))
		if err != nil {
			t.Error(err)
			return nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for _, row := range []struct {
		name  string
		cfg   Config
		prime bool // answer the query once before the measured request
		// drive issues the measured request(s) and returns the response
		// the row's status and X-Cache are asserted on (nil: none seen).
		drive      func(t *testing.T, s *Server, ts string) *http.Response
		status     int
		xcache     string
		retryAfter bool
		want       acct
		outcomes   []string // slow-log outcomes, sorted
	}{
		{name: "miss",
			drive:  func(t *testing.T, _ *Server, ts string) *http.Response { return get(t, ts, "") },
			status: 200, xcache: "MISS", want: acct{queries: 1, engineRuns: 1}, outcomes: []string{"miss"}},
		{name: "hit", prime: true,
			drive:  func(t *testing.T, _ *Server, ts string) *http.Response { return get(t, ts, "") },
			status: 200, xcache: "HIT", want: acct{queries: 1}, outcomes: []string{"hit"}},
		{name: "coalesced", cfg: Config{Workers: 1, MaxInFlight: 8},
			drive: func(t *testing.T, s *Server, ts string) *http.Response {
				release := parkWorker(s)
				leader := make(chan *http.Response, 1)
				go func() { leader <- get(t, ts, "") }()
				waitFor(t, "the leader's flight", func() bool { return s.flightCount() == 1 })
				waiter := make(chan *http.Response, 1)
				go func() { waiter <- get(t, ts, "") }()
				waitFor(t, "the waiter to coalesce", func() bool { return s.metrics.Coalesced.Load() == 1 })
				release()
				if resp := <-leader; resp == nil || resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "MISS" {
					t.Errorf("leader: got %+v, want 200 MISS", resp)
				}
				return <-waiter
			},
			status: 200, xcache: "COALESCED", want: acct{queries: 2, engineRuns: 1}, outcomes: []string{"coalesced", "miss"}},
		{name: "stream", cfg: Config{Unordered: true},
			drive:  func(t *testing.T, _ *Server, ts string) *http.Response { return get(t, ts, "") },
			status: 200, xcache: "STREAM", want: acct{queries: 1, engineRuns: 1}, outcomes: []string{"stream"}},
		{name: "explain",
			drive:  func(t *testing.T, _ *Server, ts string) *http.Response { return get(t, ts, "explain=1&") },
			status: 200, want: acct{queries: 1, engineRuns: 1}, outcomes: []string{"explain"}},
		{name: "overload", cfg: Config{Workers: 1, MaxInFlight: 1},
			drive: func(t *testing.T, s *Server, ts string) *http.Response {
				defer parkWorker(s)()
				return get(t, ts, "")
			},
			status: 503, retryAfter: true, want: acct{rejected: 1}, outcomes: []string{"error"}},
		{name: "deadline", cfg: Config{QueryTimeout: time.Nanosecond},
			drive:  func(t *testing.T, _ *Server, ts string) *http.Response { return get(t, ts, "") },
			status: 504, want: acct{timeouts: 1}, outcomes: []string{"error"}},
		{name: "client cancel", cfg: Config{Workers: 1, MaxInFlight: 8},
			drive: func(t *testing.T, s *Server, ts string) *http.Response {
				release := parkWorker(s)
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				go func() {
					defer close(done)
					req, _ := http.NewRequestWithContext(ctx, "GET", ts+"/sparql?query="+url.QueryEscape(pathQuery), nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}()
				waitFor(t, "the queued request's flight", func() bool { return s.flightCount() == 1 })
				cancel()
				<-done
				// The server notices the closed connection asynchronously;
				// the slot frees only afterwards, so the request can never
				// run instead of being abandoned.
				time.Sleep(50 * time.Millisecond)
				release()
				return nil
			},
			want: acct{disconnects: 1}, outcomes: []string{"error"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			sink := &syncBuffer{}
			cfg := row.cfg
			cfg.SlowQueryLog = sink
			s, ts := newTestServer(t, testDB(t), cfg)
			if row.prime {
				get(t, ts.URL, "")
			}
			before, linesBefore := snapshotAcct(&s.metrics), strings.Count(sink.String(), "\n")

			resp := row.drive(t, s, ts.URL)
			if resp != nil {
				if resp.StatusCode != row.status {
					t.Errorf("status = %d, want %d", resp.StatusCode, row.status)
				}
				if xc := resp.Header.Get("X-Cache"); xc != row.xcache {
					t.Errorf("X-Cache = %q, want %q", xc, row.xcache)
				}
				if got := resp.Header.Get("Retry-After") != ""; got != row.retryAfter {
					t.Errorf("Retry-After present = %v, want %v", got, row.retryAfter)
				}
			}
			// The slow-log line is a request's last act, written after the
			// response: once every line is in, the accounting is final.
			waitFor(t, "the slow-log lines", func() bool {
				return strings.Count(sink.String(), "\n")-linesBefore == len(row.outcomes)
			})
			var outcomes []string
			for _, ln := range strings.Split(strings.TrimSpace(sink.String()), "\n")[linesBefore:] {
				var rec SlowQueryRecord
				if err := json.Unmarshal([]byte(ln), &rec); err != nil {
					t.Fatalf("slow-log line %q: %v", ln, err)
				}
				outcomes = append(outcomes, rec.Outcome)
			}
			sort.Strings(outcomes)
			if strings.Join(outcomes, ",") != strings.Join(row.outcomes, ",") {
				t.Errorf("slow-log outcomes = %v, want %v", outcomes, row.outcomes)
			}
			if got := snapshotAcct(&s.metrics).minus(before); got != row.want {
				t.Errorf("counter deltas = %+v, want %+v", got, row.want)
			}
		})
	}
}
