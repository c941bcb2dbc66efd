// Package server is the SPARQL serving layer over a gstored database: a
// SPARQL 1.1 Protocol HTTP endpoint backed by a bounded concurrent query
// scheduler (admission control, per-query timeout and cancellation) and
// one result table keyed on the canonicalized compiled query — an LRU
// result cache whose entries are either resident or in flight, so
// concurrent identical queries share one execution — plus /metrics and
// /healthz operational endpoints.
//
// Endpoints:
//
//	GET  /sparql?query=...   SPARQL 1.1 Protocol query via GET
//	POST /sparql             form-urlencoded query= or application/sparql-query body;
//	                         with Config.Writable, form-urlencoded update= or an
//	                         application/sparql-update body applies INSERT DATA /
//	                         DELETE DATA (403 on read-only servers)
//	POST /repartition        apply an explicit {"strategy", "k"} partitioning online
//	GET  /metrics            Prometheus text exposition of serving + engine counters
//	GET  /healthz            liveness probe with dataset summary
//
// /repartition hot-swaps the cluster via DB.Repartition while queries
// keep serving. The result table is epoch-versioned: every entry, in
// flight or resident, carries the cluster epoch of the request that
// created it, and answers and coalesces only requests of that epoch.
// When an update advances the epoch, the resident entries it provably
// left unchanged are re-stamped and the rest dropped; any other advance
// flushes them. So a pre-swap result answers a post-swap query only when
// it is that query's post-swap answer.
//
// Beside the result table, under its lock, a bounded request memo maps a
// read's exact request text (a GET's raw URL query, or a sparql-query
// POST's raw URL query and body) to its parsed query, table key,
// projection names and format parameter, so a repeated text is answered
// without decoding, parsing or canonicalizing it. A parse that holds a
// placeholder for a constant the dictionary lacks is not memoized, since
// a later INSERT can add the constant; every other parse stays valid
// across epochs, because dictionary IDs never change once assigned.
//
// Results are serialized as application/sparql-results+json (default) or
// text/tab-separated-values, negotiated via the Accept header or a
// ?format=json|tsv override, and streamed: bindings are written
// incrementally with periodic flushes, so the serializer's buffer stays
// bounded regardless of result size. The answer it reads is not: an
// ordered answer is the engine's fully materialized Result, every row
// held until the response is written; only unordered delivery holds no
// rows. Cache state is reported in the X-Cache response header: HIT
// (served from the result cache), MISS (executed and, when small enough,
// cached), BYPASS (executed but too large for the cache's row cap),
// COALESCED (shared the in-flight execution of a concurrent identical
// query), or STREAM (unordered first-row-early delivery under
// Config.Unordered: rows flow from the engine to the serializer as they
// are produced, LIMIT cancels the remaining distributed work, and the
// cache is not consulted).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gstored"
	"gstored/internal/sparql"
	"gstored/internal/trace"
)

// Config tunes New. The zero value serves with sensible defaults.
type Config struct {
	// MaxInFlight bounds admitted queries (queued + running); requests
	// beyond it receive 503 (default 64). On writable servers the same
	// bound caps concurrently admitted update requests (which serialize
	// on the DB's swap mutex rather than on the query slots).
	MaxInFlight int
	// Workers bounds the queries executing concurrently; admitted
	// requests beyond it wait for a slot (default GOMAXPROCS).
	Workers int
	// QueryTimeout cancels queries running longer than this (default 30s).
	QueryTimeout time.Duration
	// CacheEntries bounds the LRU result cache (default 256; negative
	// disables caching, and so does Unordered).
	CacheEntries int
	// CacheMaxRows caps the result size admitted to the cache, in
	// projected rows: a larger result is answered like a miss (executed,
	// then written from its Result) but not kept resident (X-Cache:
	// BYPASS), so one huge query can neither evict the working set nor
	// stay pinned in memory after its response (default 65536; negative
	// removes the cap).
	CacheMaxRows int
	// Writable enables the SPARQL 1.1 Update path: POST /sparql with an
	// application/sparql-update body (or an update= form field) applies
	// INSERT DATA / DELETE DATA as an atomic generation swap with an
	// epoch bump — the same mechanism /repartition uses, so the result
	// table never serves a pre-write answer the write changed. When false
	// (the default) update requests are refused with 403 and the database
	// is never mutated.
	Writable bool
	// SlowQueryLog, when non-nil, receives one structured JSON line
	// (SlowQueryRecord) for every query whose client-facing wall time
	// reaches SlowQueryThreshold. Point it at a RotatingWriter to bound
	// disk use. When set, every executed query carries a trace, so slow
	// lines include the per-stage, per-fragment span timeline.
	SlowQueryLog io.Writer
	// SlowQueryThreshold is the slow-query bar; zero logs every query
	// (useful in CI and when diagnosing), and it only takes effect when
	// SlowQueryLog is set.
	SlowQueryThreshold time.Duration
	// Unordered enables first-row-early delivery: rows stream straight
	// from the engine's unordered execution into the serializer as they
	// are produced — no terminal sort, no materialized result — and a
	// LIMIT cancels the remaining distributed work once satisfied.
	// Responses bypass the result table (X-Cache: STREAM), which then
	// caches nothing: rows are never materialized to store, and which
	// subset a truncated unordered query returns is execution-dependent.
	// Row order varies between runs; the ordered default keeps the
	// deterministic canonical order golden tests and the cache rely on.
	Unordered bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheMaxRows == 0 {
		c.CacheMaxRows = 1 << 16
	}
	return c
}

// Server serves SPARQL queries over HTTP. Create with New; it implements
// http.Handler and must be Closed to stop admitting queries.
type Server struct {
	db    *gstored.DB
	cfg   Config
	sched *Scheduler
	// results is the result cache and singleflight in one table;
	// capacity 0 when caching is disabled.
	results *resultTable
	// updateSlots bounds concurrently admitted update requests (writers
	// serialize on the DB's swap mutex, so admitted slots measure queue
	// depth). Sized like MaxInFlight so one knob governs both admission
	// bounds.
	updateSlots slots
	slowLog     *slowLogger   // nil when slow-query logging is disabled
	epoch       atomic.Uint64 // last cluster epoch the result table was synced to
	// heartbeats records when each site last answered a health probe
	// (healthz and metrics both probe); the healthz table reports it so
	// a down site shows how stale its last good answer is.
	heartMu    sync.Mutex
	heartbeats map[int]time.Time
	metrics    Metrics
	mux        *http.ServeMux
	started    time.Time
}

// New builds a server over db. The db must outlive the server.
func New(db *gstored.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	// Unordered responses never reach the result table, so it keeps
	// nothing and EXPLAIN reports the cache disabled.
	capacity := cfg.CacheEntries
	if cfg.Unordered {
		capacity = 0
	}
	s := &Server{
		db:          db,
		cfg:         cfg,
		sched:       NewScheduler(cfg.Workers, cfg.MaxInFlight),
		results:     newResultTable(capacity),
		updateSlots: make(slots, cfg.MaxInFlight),
		mux:         http.NewServeMux(),
		started:     time.Now(),
		heartbeats:  make(map[int]time.Time),
	}
	if cfg.SlowQueryLog != nil {
		s.slowLog = &slowLogger{w: cfg.SlowQueryLog, threshold: cfg.SlowQueryThreshold, drops: &s.metrics.SlowLogDrops}
	}
	s.epoch.Store(db.Epoch())
	s.mux.HandleFunc("/sparql", s.handleSparql)
	s.mux.HandleFunc("/repartition", s.handleRepartition)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close closes the scheduler. Running queries finish; waiting ones fail
// with ErrClosed.
func (s *Server) Close() { s.sched.Close() }

// Metrics exposes the server's counters; intended for tests and embedding.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// CacheStats snapshots the result-cache counters (zero when disabled).
func (s *Server) CacheStats() CacheStats { return s.results.stats() }

// readKind classifies a /sparql request by where its SPARQL text is.
type readKind int

const (
	readGet    readKind = iota // a query in the URL query's query= parameter
	readBody                   // an application/sparql-query body
	readForm                   // a query in a POSTed form's query= field
	readUpdate                 // an update: a POSTed form's update= field or an application/sparql-update body
)

// requestText reads a /sparql request per the SPARQL 1.1 Protocol and
// classifies the operation: queries arrive via GET query=, POSTed form
// query= fields, or application/sparql-query bodies; updates arrive via
// POSTed form update= fields or application/sparql-update bodies
// (updates over GET are not a thing — a cacheable, retriable method must
// not mutate). It returns the text of every kind but readGet: a GET's
// text stays in the URL query, which a read the memo answers never
// decodes.
func requestText(r *http.Request) (text string, kind readKind, err error) {
	switch r.Method {
	case http.MethodGet:
		return "", readGet, nil
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if i := strings.IndexByte(ct, ';'); i >= 0 {
			ct = ct[:i]
		}
		switch strings.TrimSpace(strings.ToLower(ct)) {
		case "application/x-www-form-urlencoded", "":
			// Same 1 MiB cap as the direct-body forms: without it,
			// ParseForm's default ~10 MiB limit would let form-encoded
			// requests (updates especially) grow 10x past the documented
			// bound just by switching encodings.
			r.Body = http.MaxBytesReader(nil, r.Body, 1<<20)
			if err := r.ParseForm(); err != nil {
				return "", 0, fmt.Errorf("malformed form body: %w", err)
			}
			if u := r.PostForm.Get("update"); u != "" {
				if r.PostForm.Get("query") != "" {
					return "", 0, fmt.Errorf("provide query or update, not both")
				}
				return u, readUpdate, nil
			}
			return r.PostForm.Get("query"), readForm, nil
		case "application/sparql-query":
			text, err := postBody(r)
			return text, readBody, err
		case "application/sparql-update":
			text, err := postBody(r)
			return text, readUpdate, err
		default:
			return "", 0, fmt.Errorf("unsupported Content-Type %q", ct)
		}
	default:
		return "", 0, errMethod
	}
}

func postBody(r *http.Request) (string, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		return "", fmt.Errorf("reading request body: %w", err)
	}
	return string(body), nil
}

var errMethod = errors.New("method not allowed")

// negotiate picks the response serialization: an explicit ?format=
// override (format, the decoded parameter) wins, then the Accept header;
// JSON is the default. Accept is parsed at media-range granularity per
// RFC 9110 — ranges split on commas, a range of weight q=0 ("not
// acceptable") skipped, other parameters ignored, exact media-type
// comparison — and the first acceptable range of a supported type wins,
// so "application/sparql-results+json, text/tab-separated-values;q=0.1"
// negotiates JSON instead of substring-matching TSV.
func negotiate(r *http.Request, format string) (contentType string, tsv bool) {
	switch strings.ToLower(format) {
	case "tsv":
		return ContentTypeTSV, true
	case "json":
		return ContentTypeJSON, false
	}
ranges:
	for _, rng := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, params, _ := strings.Cut(rng, ";")
		for params != "" {
			var p string
			p, params, _ = strings.Cut(params, ";")
			name, v, _ := strings.Cut(p, "=")
			if w, err := strconv.ParseFloat(strings.TrimSpace(v), 64); strings.EqualFold(strings.TrimSpace(name), "q") && err == nil && w == 0 {
				continue ranges
			}
		}
		switch strings.ToLower(strings.TrimSpace(mt)) {
		case ContentTypeTSV, "text/*":
			return ContentTypeTSV, true
		case ContentTypeJSON, "application/json", "application/*", "*/*":
			return ContentTypeJSON, false
		}
	}
	return ContentTypeJSON, false
}

// key identifies a query up to variable renaming and triple order: the
// canonical compiled query scoped by engine mode. It keys the result
// table and the slow log; table entries carry their epoch.
func (s *Server) key(q *gstored.QueryGraph) string {
	return "m" + strconv.Itoa(int(s.db.Mode())) + "|" + s.db.CanonicalQueryKey(q)
}

func (s *Server) handleSparql(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	text, kind, err := requestText(r)
	if err != nil {
		if errors.Is(err, errMethod) {
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if kind == readUpdate {
		s.handleUpdate(w, r, text)
		return
	}

	// A trace is attached only when something will read it — the explain
	// response or the slow-query log. Untraced executions pay one nil
	// context lookup per stage.
	var tr *trace.Trace
	if s.slowLog != nil {
		tr = trace.New()
	}

	// A read the memo holds skips decoding, parsing and canonicalization:
	// one lookup under the result table's lock yields its parsed query
	// and acquires its entry. The fast path runs only while the table is
	// synced to the live epoch, so revalidation stays with syncEpoch.
	memoKey := s.memoKey(r, kind, text)
	if memoKey != "" {
		if epoch := s.db.Epoch(); epoch <= s.epoch.Load() {
			from := time.Now()
			if m, e, c := s.results.recall(epoch, memoKey); m != nil {
				tr.Span("parse", trace.Coordinator, from, time.Since(from))
				rq := &request{s: s, w: w, r: r, q: m.q, names: m.names, tr: tr, start: start, key: m.key, epoch: epoch}
				rq.contentType, _ = negotiate(r, m.format)
				rq.ordered(e, c)
				return
			}
		}
	}

	// The URL query holds the whole URL-encoded SPARQL text of a GET:
	// it is decoded once, here, for every parameter the request reads.
	query := r.URL.Query()
	if kind == readGet {
		text = query.Get("query")
	}
	if strings.TrimSpace(text) == "" {
		http.Error(w, "missing 'query' parameter", http.StatusBadRequest)
		return
	}
	explain := explainRequested(r, query)
	if explain && tr == nil {
		tr = trace.New()
	}

	// ParseReadOnly: untrusted constants must not grow the shared
	// dictionary; unknown terms match nothing, which is the right answer.
	parseStart := time.Now()
	q, err := s.db.ParseReadOnly(text)
	tr.Span("parse", trace.Coordinator, parseStart, time.Since(parseStart))
	if err != nil {
		s.metrics.Errors.Add(1)
		s.metrics.QueryDurations[outcomeError].Observe(time.Since(start))
		http.Error(w, fmt.Sprintf("parse error: %v", err), http.StatusBadRequest)
		return
	}

	format := query.Get("format")
	rq := &request{s: s, w: w, r: r, q: q, names: s.db.Columns(q), text: text, tr: tr, start: start, key: s.key(q), epoch: s.syncEpoch(tr)}
	rq.contentType, _ = negotiate(r, format)
	switch {
	case explain:
		rq.explain()
	case s.cfg.Unordered:
		rq.stream()
	default:
		// A constant the dictionary lacks parses to a placeholder that a
		// later INSERT can make real, so such a parse is not memoized.
		if memoKey != "" && q.Placeholders == nil {
			s.results.remember(memoKey, &memoRead{q: q, key: rq.key, names: rq.names, format: format})
		}
		rq.ordered(s.results.acquire(rq.epoch, rq.key))
	}
}

// memoKey is the memo's key for a read: a GET's raw URL query, or a
// sparql-query POST's raw URL query (its format and explain parameters)
// and body, split by a NUL, which a URL never holds. Every other read —
// and every read of a table that keeps nothing — has none, "". A key
// holding explain=1 is looked up, misses and is never memoized.
func (s *Server) memoKey(r *http.Request, kind readKind, text string) string {
	switch {
	case s.results.capacity == 0:
		return ""
	case kind == readGet:
		return r.URL.RawQuery
	case kind == readBody:
		return r.URL.RawQuery + "\x00" + text
	}
	return ""
}

// request is one parsed /sparql query on its way through the serving
// pipeline. There is one way to reach the engine (execute), one way to
// fail (fail) and one way to be accounted (finish); ordered, stream and
// explain are the three callers, and differ only in the sink they hand
// the engine and the outcome they finish with.
type request struct {
	s           *Server
	w           http.ResponseWriter
	r           *http.Request
	q           *gstored.QueryGraph
	names       []string     // projected column names; shared with the memo, read-only
	text        string       // the SPARQL text; empty on a memo hit, which is never an EXPLAIN
	tr          *trace.Trace // nil when neither EXPLAIN nor the slow log will read it
	start       time.Time
	key         string // query key (Server.key): the result table's key
	epoch       uint64 // cluster generation the request was admitted under
	contentType string // negotiated result serialization
}

// execute admits the request and runs the engine: the per-query timeout
// and the trace ride on ctx, the scheduler admits or sheds the call, and
// run — the caller's engine invocation, sink included — is clocked
// without its admission wait, which would inflate
// gstored_query_seconds_total exactly under saturation. Every execution
// that produced a result is folded into the engine counters here, also
// when run reports an error next to it (a stream whose client vanished).
func (rq *request) execute(ctx context.Context, run func(context.Context) (*gstored.Result, error)) (*gstored.Result, error) {
	s := rq.s
	ctx, cancel := context.WithTimeout(ctx, s.cfg.QueryTimeout)
	defer cancel()
	if rq.tr != nil {
		ctx = trace.NewContext(ctx, rq.tr)
	}
	var res *gstored.Result
	var wall time.Duration
	err := s.sched.Run(ctx, func(ctx context.Context) (err error) {
		start := time.Now()
		res, err = run(ctx)
		wall = time.Since(start)
		return err
	})
	if res != nil {
		s.metrics.EngineRuns.Add(1)
		// An early termination is a delivered LIMIT: Stats.EarlyStop is
		// also set when the consumer (a vanished client) declined rows,
		// which is a disconnect, not a satisfied query.
		if res.Stats.EarlyStop && rq.q.HasLimit && res.Stats.NumMatches == rq.q.Limit {
			s.metrics.EarlyStops.Add(1)
		}
		s.metrics.Observe(res.Stats, wall)
	}
	return res, err
}

// fail answers with err's status and accounts the request as failed.
func (rq *request) fail(err error) {
	rq.s.failQuery(rq.w, err)
	rq.finish(outcomeError, nil, 0)
}

// finish accounts one request after its response is written. Answered
// requests count in Queries; every request lands in its outcome's
// client-facing latency histogram and, when the threshold is met, in the
// slow-query log. stats is the execution that produced the rows: a
// cached or coalesced serving passes the stats of the run it shares.
func (rq *request) finish(o queryOutcome, stats *gstored.Stats, rows int) {
	s := rq.s
	if o != outcomeError {
		s.metrics.Queries.Add(1)
	}
	wall := time.Since(rq.start)
	s.metrics.QueryDurations[o].Observe(wall)
	s.slowLog.maybeLog(o, wall, rq.key, rq.epoch, stats, rows, rq.tr)
}

// serialize writes rows to w in the negotiated format.
func (rq *request) serialize(w io.Writer, rows RowSeq) error {
	from := time.Now()
	write := WriteResultsJSON
	if rq.contentType == ContentTypeTSV {
		write = WriteResultsTSV
	}
	err := write(w, rq.s.db.Graph.Dict, rq.names, rows)
	rq.tr.Span("serialize", trace.Coordinator, from, time.Since(from))
	return err
}

// answer sends res's rows under the given X-Cache state and accounts
// the request as o. Every ordered answer — hit, waiter or leader — is
// served from the engine's Result, projected one row at a time into a
// reused buffer, so the serve path adds no per-request copy of the rows.
func (rq *request) answer(res *gstored.Result, state cacheState, o queryOutcome) {
	rq.w.Header().Set("Content-Type", rq.contentType)
	rq.w.Header().Set("X-Cache", string(state))
	if err := rq.serialize(rq.w, res.EachProjected); err != nil {
		// Headers are gone; all we can do is abort the stream. A write
		// that died because the client hung up mid-download is the
		// client's fault, not an error operators should page on.
		if rq.r.Context().Err() != nil {
			rq.s.metrics.ClientDisconnects.Add(1)
		} else {
			rq.s.metrics.Errors.Add(1)
		}
	}
	rq.finish(o, &res.Stats, res.Len())
}

// ordered answers in the deterministic canonical order through the
// result table, from the entry e the request acquired: a resident entry
// of the request's epoch answers at once, an in-flight one is waited on,
// and otherwise the request leads — runs the engine detached from its
// own client and settles the entry.
func (rq *request) ordered(e *entry, c claim) {
	s := rq.s
	switch c {
	case claimHit:
		rq.answer(e.res, cacheHit, outcomeHit)
		return
	case claimWait:
		// Singleflight: an identical query is already executing; wait for
		// its outcome instead of running the engine again.
		s.metrics.Coalesced.Add(1)
		ctx, cancel := context.WithTimeout(rq.r.Context(), s.cfg.QueryTimeout)
		defer cancel()
		select {
		case <-e.done:
		case <-ctx.Done():
			rq.fail(ctx.Err())
			return
		}
		if e.err != nil {
			rq.fail(e.err)
			return
		}
		rq.answer(e.res, cacheCoalesced, outcomeCoalesced)
		return
	}

	res, err := rq.lead(e)
	if err != nil {
		rq.fail(err)
		return
	}
	state := cacheMiss
	if s.results.capacity > 0 && !s.cacheable(res) {
		state = cacheBypass
		s.metrics.CacheBypass.Add(1)
	}
	rq.answer(res, state, outcomeMiss)
}

// lead runs the engine as the leader of the in-flight entry e and
// settles it, which makes a cacheable result resident and wakes the
// waiters in one step: a request arriving after it either hits or, when
// nothing became resident, legitimately leads the next run.
func (rq *request) lead(e *entry) (res *gstored.Result, err error) {
	s := rq.s
	defer func() { s.results.settle(e, res, err, err == nil && s.cacheable(res)) }()
	// The execution detaches from its client's disconnect once waiters
	// have coalesced onto the flight: their queries must not fail because
	// the leader hung up. While the flight is uncontended, a disconnect
	// still cancels the engine cooperatively.
	ctx, cancel := context.WithCancel(context.WithoutCancel(rq.r.Context()))
	defer cancel()
	defer context.AfterFunc(rq.r.Context(), func() { s.results.abandon(e, cancel) })()
	return rq.execute(ctx, func(ctx context.Context) (*gstored.Result, error) {
		return s.db.QueryGraphContext(ctx, rq.q)
	})
}

// syncEpoch returns the current cluster epoch and brings the result
// table's resident entries along when the epoch advanced since the last
// sync. The goroutine whose CAS moves the server from last to the new
// epoch does it, once: when one Update made the new epoch from last, the
// entries stamped last that its exact test proves unchanged are
// re-stamped and the others dropped (resultTable.revalidate), recorded
// on tr as a "revalidate" span; a Repartition, or two or more
// generations since the last sync, flushes everything. An entry's test
// must finish by the summed TotalTime of the executions behind it and
// behind every entry judged before it, so revalidating never costs more
// than re-running the entries, and a scheduling stall in one cheap test
// is absorbed by the slack earlier ones left instead of dropping its
// entry. Correctness depends on neither: entries answer only at the
// epoch they carry. A table that keeps nothing has nothing to move, and
// counts no flush.
func (s *Server) syncEpoch(tr *trace.Trace) uint64 {
	e, unchanged := s.db.EpochChange()
	for {
		last := s.epoch.Load()
		if e <= last {
			return e
		}
		if !s.epoch.CompareAndSwap(last, e) {
			continue
		}
		switch {
		case s.results.capacity == 0:
		case e == last+1 && unchanged != nil:
			from := time.Now()
			deadline := from
			kept, dropped := s.results.revalidate(last, func(res *gstored.Result) bool {
				deadline = deadline.Add(res.Stats.TotalTime)
				return unchanged(res.Query, deadline)
			})
			tr.Span("revalidate", trace.Coordinator, from, time.Since(from))
			s.metrics.CacheRevalidated[revalidationKept].Add(int64(kept))
			s.metrics.CacheRevalidated[revalidationDropped].Add(int64(dropped))
		default:
			s.results.flush()
			s.metrics.CacheFlushes.Add(1)
		}
		return e
	}
}

// cacheable reports whether res fits under the cache row cap.
func (s *Server) cacheable(res *gstored.Result) bool {
	return s.cfg.CacheMaxRows < 0 || res.Len() <= s.cfg.CacheMaxRows
}

// classify is the one error table: what a failed operation (query,
// update, repartition) is answered with, and the counter it
// moves. A client's own disconnect (context.Canceled) is not a server
// fault: it counts in gstored_client_disconnects_total, never in
// gstored_query_errors_total, so dashboards alerting on the error rate
// don't page because clients hung up. Shutdown abandonment is
// server-side, so it stays in Errors; so does a syntax error, though
// that one is the client's to fix. A query over the engine's held-data
// budget is the query's fault, not the server's: 422, its own counter.
func (s *Server) classify(op string, err error) (status int, counter *atomic.Int64, reason string) {
	m := &s.metrics
	var syntax *sparql.SyntaxError
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable, &m.Rejected, op + " load limit reached, retry later"
	case errors.Is(err, gstored.ErrBudget):
		return http.StatusUnprocessableEntity, &m.OverBudget, op + " would hold more data than the engine's budget; narrow it"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, &m.Timeouts, fmt.Sprintf("%s exceeded the %v time limit", op, s.cfg.QueryTimeout)
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, &m.ClientDisconnects, op + " canceled"
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, &m.Errors, "server shutting down"
	case errors.As(err, &syntax):
		return http.StatusBadRequest, &m.Errors, fmt.Sprintf("%s failed: %v", op, err)
	default:
		return http.StatusInternalServerError, &m.Errors, fmt.Sprintf("%s failed: %v", op, err)
	}
}

// fail counts err and answers it; overload carries Retry-After, so
// well-behaved clients back off.
func (s *Server) fail(w http.ResponseWriter, op string, err error) {
	status, counter, reason := s.classify(op, err)
	counter.Add(1)
	if errors.Is(err, ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, reason, status)
}

func (s *Server) failQuery(w http.ResponseWriter, err error) { s.fail(w, "query", err) }

// cacheState is the X-Cache response header value: how the result
// reached the client relative to the result table.
type cacheState string

const (
	cacheHit       cacheState = "HIT"       // served from the result cache
	cacheMiss      cacheState = "MISS"      // executed (and cached when admitted)
	cacheBypass    cacheState = "BYPASS"    // executed; too large for the cache row cap
	cacheCoalesced cacheState = "COALESCED" // shared a concurrent identical execution
	cacheStream    cacheState = "STREAM"    // unordered first-row-early delivery; cache not consulted
)

// streamResponse is the unordered answer's ResponseWriter. Its first
// write — which writeRows makes only once row one is rendered, or once an
// empty run has succeeded — sets the success headers and is flushed at
// once, so time-to-first-byte tracks first-row production; until then
// nothing has reached the client, and a failure can still send a real
// status. After abort every write fails, so a serializer cannot close a
// document whose row stream died half way. Flush passes through, which
// keeps the serializers' periodic flushes working.
type streamResponse struct {
	w       http.ResponseWriter
	header  http.Header // success headers; set by the first write, so an error reply never carries them
	started bool
	aborted bool
}

// errStreamAborted fails writes after abort.
var errStreamAborted = errors.New("server: result stream aborted")

func (sw *streamResponse) Write(p []byte) (int, error) {
	if sw.aborted {
		return 0, errStreamAborted
	}
	if !sw.started {
		sw.started = true
		maps.Copy(sw.w.Header(), sw.header)
		defer sw.Flush()
	}
	return sw.w.Write(p)
}

// abort fails all further writes. A started stream is left visibly
// truncated — no closing bracket — so a partial answer can never parse
// as a complete one; an unstarted stream simply never ships.
func (sw *streamResponse) abort() { sw.aborted = true }

// Flush implements http.Flusher.
func (sw *streamResponse) Flush() {
	if f, ok := sw.w.(http.Flusher); ok {
		f.Flush()
	}
}

// stream answers in unordered first-row-early delivery mode: the
// serializer runs inside the scheduled call and pulls rows straight off
// the engine's streaming execution, so the first row reaches the client
// while distributed evaluation is still in progress, and a LIMIT cancels
// the remaining work the moment it is satisfied. The result table is
// not consulted (X-Cache: STREAM) — nothing is
// materialized to store, and a truncated unordered answer is one
// execution's arbitrary row subset, not "the" result. The response
// starts with the first row (writeRows, streamResponse): only failures
// before that — admission rejection, queued-context expiry, an engine
// error with no rows yet — can still report their usual statuses.
func (rq *request) stream() {
	s := rq.s
	sw := &streamResponse{w: rq.w, header: http.Header{"Content-Type": {rq.contentType}, "X-Cache": {string(cacheStream)}}}
	// The clocked run is the whole streaming pipeline: emit blocks on
	// serialization, so unlike the ordered path the engine wall time
	// includes response-write backpressure from slow clients — in a
	// synchronous engine→client pipeline the two are inseparable (and the
	// serialize span covers both, the engine's stage spans inside it).
	res, err := rq.execute(rq.r.Context(), func(ctx context.Context) (*gstored.Result, error) {
		// Serialization holds a scheduler slot, and a write blocked on a
		// stalled client is not context-aware — without a write deadline,
		// `Workers` slow-loris readers would pin every slot. The response
		// write deadline mirrors the per-query deadline, so the timeout
		// really does bound the stream end to end; it is cleared on the
		// way out so a keep-alive connection's next response is unscoped.
		rc := http.NewResponseController(rq.w)
		if dl, ok := ctx.Deadline(); ok && rc.SetWriteDeadline(dl) == nil {
			// Best-effort: if clearing fails the connection is already
			// unusable and the server will close it.
			defer func() { _ = rc.SetWriteDeadline(time.Time{}) }()
		}
		var res *gstored.Result
		var engineErr error
		writeErr := rq.serialize(sw, func(yield func(gstored.Row) bool) {
			res, engineErr = s.db.QueryGraphStreamContext(ctx, rq.q, yield)
			if engineErr != nil {
				// The engine died mid-stream: drop everything still
				// unwritten, the document terminator included, so a
				// started partial answer stays visibly truncated
				// instead of parsing as a complete result.
				sw.abort()
			}
		})
		switch {
		case engineErr != nil:
			return nil, engineErr
		case writeErr != nil && ctx.Err() != nil:
			// The engine succeeded but the response didn't: a vanished
			// client surfaces as the context's cancellation, a genuine
			// serialization fault as itself.
			return res, ctx.Err()
		}
		return res, writeErr
	})
	if err != nil {
		if !sw.started {
			// Nothing reached the client; a full status reply is possible.
			rq.fail(err)
			return
		}
		// The stream has started: count the failure; the stream stays
		// truncated.
		_, counter, _ := s.classify("query", err)
		counter.Add(1)
		if res == nil {
			rq.finish(outcomeError, nil, 0)
			return
		}
		// The engine itself completed (e.g. the client vanished and the
		// sink stopped the run): the query was answered engine-side, so it
		// is accounted like any stream, though the answer never fully
		// shipped.
	}
	rq.finish(outcomeStream, &res.Stats, res.Stats.NumMatches)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, sites, epoch := s.db.ClusterInfo()
	status, _ := s.probeSites(r.Context())
	up := make(map[int]bool, len(status))
	for _, st := range status {
		up[st.Site] = st.Up
	}
	s.metrics.Write(w, s.CacheStats(), s.sched.InFlight(), time.Since(s.started), Gauges{
		Epoch:  epoch,
		Sites:  sites,
		SiteUp: up,
	})
}

// probeSites runs a health round over the live generation's sites (a
// real RPC per site in worker mode — the probe doubles as the
// heartbeat) and returns the statuses with each site's last successful
// heartbeat time. The round shares one QueryTimeout deadline: a stalled
// worker reads as down instead of hanging /healthz and /metrics.
func (s *Server) probeSites(ctx context.Context) ([]gstored.SiteStatus, map[int]time.Time) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.QueryTimeout)
	defer cancel()
	status := s.db.SiteHealth(ctx)
	now := time.Now()
	s.heartMu.Lock()
	defer s.heartMu.Unlock()
	beats := make(map[int]time.Time, len(status))
	for _, st := range status {
		if st.Up {
			s.heartbeats[st.Site] = now
		}
		beats[st.Site] = s.heartbeats[st.Site]
	}
	return status, beats
}

// healthSite is one row of the /healthz site table.
type healthSite struct {
	Site      int    `json:"site"`
	Addr      string `json:"addr"`
	Epoch     uint64 `json:"epoch"`
	Fragments int    `json:"fragments"`
	Up        bool   `json:"up"`
	// LastHeartbeat is the RFC 3339 time the site last answered a probe;
	// empty when it never has.
	LastHeartbeat string `json:"last_heartbeat,omitempty"`
	Error         string `json:"error,omitempty"`
}

// writeJSON answers v as the JSON body, indented by indent. A write that
// died because the client hung up counts as that client's disconnect.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v any, indent string) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil && r.Context().Err() != nil {
		s.metrics.ClientDisconnects.Add(1)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	strategy, sites, epoch := s.db.ClusterInfo()
	status, beats := s.probeSites(r.Context())
	table := make([]healthSite, len(status))
	healthy := "ok"
	for i, st := range status {
		table[i] = healthSite{
			Site: st.Site, Addr: st.Addr, Epoch: st.Epoch,
			Fragments: st.Fragments, Up: st.Up, Error: st.Error,
		}
		if beat, ok := beats[st.Site]; ok && !beat.IsZero() {
			table[i].LastHeartbeat = beat.UTC().Format(time.RFC3339Nano)
		}
		if !st.Up {
			healthy = "degraded"
		}
	}
	s.writeJSON(w, r, map[string]any{
		"status": healthy,
		// NumTriples reads the live generation's index: unlike Graph.Len
		// it is safe against (and reflects) concurrent updates.
		"triples":    s.db.NumTriples(),
		"sites":      sites,
		"strategy":   strategy,
		"epoch":      epoch,
		"mode":       s.db.Mode().String(),
		"writable":   s.cfg.Writable,
		"site_table": table,
	}, "")
}
