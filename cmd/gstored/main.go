// Command gstored loads an N-Triples file or generates a benchmark
// dataset, partitions it across simulated sites, and either evaluates one
// SPARQL query or, with the serve subcommand, answers a query stream over
// HTTP via the SPARQL 1.1 Protocol.
//
// Usage:
//
//	gstored -data graph.nt -query 'SELECT ?x WHERE { ?x <p> ?y }'
//	gstored -dataset lubm -queryfile q.rq -sites 12 -strategy semantic-hash -mode full
//	gstored serve -data graph.nt -addr :8080 -sites 12 -strategy hash -mode full
//	gstored serve -dataset lubm -scale 2 -addr :8080 -strategy best
//	gstored serve -dataset lubm -addr :8080 -writable
//	gstored serve -dataset lubm -addr :8080 -slow-query-ms 250 -slow-query-log slow.jsonl -debug-addr localhost:6060
//	gstored worker -listen 127.0.0.1:8091
//	gstored serve -dataset lubm -addr :8080 -site-workers 127.0.0.1:8091,127.0.0.1:8092
//
// Without a subcommand, gstored executes one query with tracing attached
// and answers as the server would from that one execution: the rows on
// stdout as the SPARQL TSV results the server writes for
// /sparql?format=tsv, and on stderr the JSON ExplainReport it answers for
// /sparql?explain=1 — compiled pattern, chosen plan, the per-stage
// columns of the paper's Tables I-III, per-fragment timings and the span
// timeline.
//
// The server exposes /sparql (GET query= or POST; with -writable, POSTed
// application/sparql-update bodies apply INSERT DATA / DELETE DATA;
// ?explain=1 returns the ExplainReport instead of bindings),
// /repartition (online hot-swap to an explicit strategy and site count),
// /metrics (Prometheus text format: scheduler, cache, per-stage engine
// counters and latency histograms) and /healthz. With -slow-query-ms,
// queries at or over the threshold emit structured JSON lines to
// -slow-query-log (a size-rotated file) or stderr; with -debug-addr,
// net/http/pprof profiling is served on a separate listener so profiling
// never shares a port with query traffic.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"gstored"
	"gstored/internal/remote"
	"gstored/internal/server"
	"gstored/internal/trace"
)

// usageError is a malformed command line: main exits with status 2 on
// it, as the flag package does on a bad flag.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func main() {
	cmd, args := run, os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			cmd, args = serveMain, args[1:]
		case "worker":
			cmd, args = workerMain, args[1:]
		}
	}
	err := cmd(args, os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintf(os.Stderr, "gstored: %v\n", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run is the one-shot query command: one traced execution, the rows
// written to stdout by the server's TSV writer and the ExplainReport to
// stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gstored", flag.ContinueOnError)
	fs.SetOutput(stderr)
	open := dbFlags(fs)
	queryText := fs.String("query", "", "SPARQL query text")
	queryFile := fs.String("queryfile", "", "file containing the SPARQL query")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected argument %q (the subcommands are serve and worker)", fs.Arg(0))}
	}
	text, err := queryArg(*queryText, *queryFile)
	if err != nil {
		return err
	}
	db, err := open(nil)
	if err != nil {
		return err
	}
	defer db.Close()
	q, err := db.ParseReadOnly(text)
	if err != nil {
		return err
	}
	tr := trace.New()
	res, err := db.QueryGraphContext(trace.NewContext(context.Background(), tr), q)
	if err != nil {
		return err
	}
	if err := server.WriteResultsTSV(stdout, db.Graph.Dict, db.Columns(q), res.EachProjected); err != nil {
		return err
	}
	// No serving layer here, so there is no cache to have a disposition.
	enc := json.NewEncoder(stderr)
	enc.SetIndent("", "  ")
	return enc.Encode(server.BuildExplain(db, q, text, res, tr, "ordered", server.ExplainCache{Disposition: "disabled", Cacheable: true}))
}

// workerMain runs a fragment-hosting worker process: it owns no data at
// start, receives its fragments from the coordinator's epoch installs,
// and serves candidate/partial-evaluation RPCs against them.
// Point a coordinator at it with `gstored serve -site-workers host:port`.
func workerMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gstored worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:8090", "RPC listen address")
	evalWork := fs.Int("eval-workers", 0, "evaluation worker pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	w := remote.NewWorker(*evalWork)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "worker listening on %s (fragments arrive with the first epoch install)\n", ln.Addr())
	return w.Serve(ln)
}

// serveMain runs the SPARQL 1.1 Protocol server over a loaded or
// generated dataset.
func serveMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gstored serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	open := dbFlags(fs)
	var (
		addr        = fs.String("addr", ":8080", "HTTP listen address")
		cache       = fs.Int("cache", 256, "result-cache entries (negative disables)")
		cacheRows   = fs.Int("cache-max-rows", 0, "max projected rows admitted per cache entry; larger results are answered but not cached (0 = default 65536, negative = uncapped)")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-query time limit")
		maxInFlight = fs.Int("max-inflight", 64, "admitted-query limit before shedding with 503")
		workers     = fs.Int("workers", 0, "queries executing concurrently (0 = GOMAXPROCS)")
		unordered   = fs.Bool("unordered", false, "first-row-early delivery: stream rows as produced (no canonical sort, LIMIT cancels remaining work, cache bypassed)")
		writable    = fs.Bool("writable", false, "accept SPARQL updates (INSERT DATA / DELETE DATA) via POST /sparql; read-only (403) otherwise")
		slowMs      = fs.Int("slow-query-ms", -1, "log queries whose wall time reaches this many milliseconds as structured JSON (0 logs every query, negative disables)")
		slowLog     = fs.String("slow-query-log", "", "slow-query log file, size-rotated at -slow-query-log-max-bytes (default: stderr)")
		slowLogMax  = fs.Int64("slow-query-log-max-bytes", 0, "rotate the slow-query log file at this size (0 = default 64 MiB)")
		debugAddr   = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); disabled when empty")
		siteWorkers = fs.String("site-workers", "", "comma-separated worker-process addresses (from `gstored worker`); fragments are shipped to and hosted by them, sites map round-robin; empty keeps every site in-process")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	var hosts []string
	for _, part := range strings.Split(*siteWorkers, ",") {
		if a := strings.TrimSpace(part); a != "" {
			hosts = append(hosts, a)
		}
	}
	db, err := open(hosts)
	if err != nil {
		return err
	}
	defer db.Close()
	cfg := server.Config{
		MaxInFlight:  *maxInFlight,
		Workers:      *workers,
		QueryTimeout: *timeout,
		CacheEntries: *cache,
		CacheMaxRows: *cacheRows,
		Unordered:    *unordered,
		Writable:     *writable,
	}
	if *slowMs >= 0 {
		cfg.SlowQueryThreshold = time.Duration(*slowMs) * time.Millisecond
		cfg.SlowQueryLog = stderr
		if *slowLog != "" {
			w, err := server.NewRotatingWriter(*slowLog, *slowLogMax)
			if err != nil {
				return err
			}
			defer w.Close()
			cfg.SlowQueryLog = w
		}
	}
	if *debugAddr != "" {
		// pprof gets its own listener and mux: profiling endpoints never
		// share a port with query traffic, so they can stay unexposed (bind
		// localhost) while /sparql is public.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			ds := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
			if err := ds.ListenAndServe(); err != nil {
				fmt.Fprintf(stderr, "gstored serve: debug listener: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "pprof debug listener on %s\n", *debugAddr)
	}
	srv := server.New(db, cfg)
	fmt.Fprintf(stdout, "serving %d triples over %d sites (%s partitioning, %s) on %s\n",
		db.NumTriples(), db.NumSites(), db.StrategyName, db.Mode(), *addr)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Bound slow clients at the connection level; without these a
		// trickled request holds a goroutine forever and the per-query
		// timeout never engages.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return hs.ListenAndServe()
}

// dbFlags declares on fs the flags that choose the data and how it is
// distributed — exactly one of -data and -dataset (with -scale), -sites,
// -strategy, -mode and -eval-workers — and returns the function that,
// after fs.Parse, opens the database they describe with its fragments
// hosted by the given worker processes (none keeps every site
// in-process).
func dbFlags(fs *flag.FlagSet) func(workers []string) (*gstored.DB, error) {
	var (
		dataPath = fs.String("data", "", "N-Triples input file")
		dataset  = fs.String("dataset", "", "generated benchmark dataset: lubm, yago, btc")
		scale    = fs.Int("scale", 0, "dataset scale (universities for lubm; 0 = default)")
		sites    = fs.Int("sites", 12, "number of simulated sites")
		strategy = fs.String("strategy", "hash", "partitioning: hash, semantic-hash, metis, best")
		mode     = fs.String("mode", "full", "engine mode: basic, la, lo, full")
		evalWork = fs.Int("eval-workers", 0, "per-query evaluation worker pool size bounding intra-query parallelism (0 = GOMAXPROCS, 1 = sequential)")
	)
	return func(workers []string) (*gstored.DB, error) {
		if (*dataPath == "") == (*dataset == "") {
			return nil, usageError{errors.New("provide exactly one of -data or -dataset")}
		}
		m, err := parseMode(*mode)
		if err != nil {
			return nil, err
		}
		g, err := loadGraph(*dataPath, *dataset, *scale)
		if err != nil {
			return nil, err
		}
		return gstored.Open(g, gstored.Config{Sites: *sites, Strategy: *strategy, Mode: m, EvalWorkers: *evalWork, Workers: workers})
	}
}

// queryArg returns the query text of -query, or the contents of
// -queryfile when that is set.
func queryArg(text, file string) (string, error) {
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			return "", err
		}
		text = string(b)
	}
	if text == "" {
		return "", usageError{errors.New("provide -query or -queryfile")}
	}
	return text, nil
}

// loadGraph reads an N-Triples file or generates a benchmark dataset.
func loadGraph(dataPath, dataset string, scale int) (*gstored.Graph, error) {
	if dataPath != "" {
		f, err := os.Open(dataPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return gstored.ReadNTriples(f)
	}
	switch strings.ToLower(dataset) {
	case "lubm":
		return gstored.GenerateLUBM(scale).Graph, nil
	case "yago":
		return gstored.GenerateYAGO(scale).Graph, nil
	case "btc":
		return gstored.GenerateBTC(scale).Graph, nil
	}
	return nil, usageError{fmt.Errorf("unknown dataset %q (want lubm, yago or btc)", dataset)}
}

func parseMode(mode string) (gstored.Mode, error) {
	switch strings.ToLower(mode) {
	case "basic":
		return gstored.ModeBasic, nil
	case "la":
		return gstored.ModeLA, nil
	case "lo":
		return gstored.ModeLO, nil
	case "full", "":
		return gstored.ModeFull, nil
	}
	return 0, usageError{fmt.Errorf("unknown mode %q", mode)}
}
