// Command gstored loads an N-Triples file, partitions it across simulated
// sites, and either evaluates one SPARQL BGP query — printing the result
// rows and the per-stage statistics of the paper's Tables I-III — or, with
// the serve subcommand, answers a query stream over HTTP via the SPARQL
// 1.1 Protocol.
//
// Usage:
//
//	gstored -data graph.nt -query 'SELECT ?x WHERE { ?x <p> ?y }'
//	gstored -data graph.nt -queryfile q.rq -sites 12 -strategy semantic-hash -mode full
//	gstored explain -dataset lubm -query 'SELECT ?x WHERE { ?x <p> ?y }'
//	gstored serve -data graph.nt -addr :8080 -sites 12 -strategy hash -mode full
//	gstored serve -dataset lubm -scale 2 -addr :8080 -strategy best
//	gstored serve -dataset lubm -addr :8080 -writable
//	gstored serve -dataset lubm -addr :8080 -slow-query-ms 250 -slow-query-log slow.jsonl -debug-addr localhost:6060
//	gstored worker -listen 127.0.0.1:8091
//	gstored serve -dataset lubm -addr :8080 -site-workers 127.0.0.1:8091,127.0.0.1:8092
//
// The explain subcommand executes one query with tracing attached and
// prints the same JSON ExplainReport the server answers for
// /sparql?explain=1: compiled pattern, chosen plan, per-stage and
// per-fragment timings, and the span timeline — from one execution.
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
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"gstored"
	"gstored/internal/engine"
	"gstored/internal/remote"
	"gstored/internal/server"
	"gstored/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "explain":
			explainMain(os.Args[2:])
			return
		case "worker":
			workerMain(os.Args[2:])
			return
		}
	}
	var (
		dataPath  = flag.String("data", "", "N-Triples input file (required)")
		queryText = flag.String("query", "", "SPARQL query text")
		queryFile = flag.String("queryfile", "", "file containing the SPARQL query")
		sites     = flag.Int("sites", 12, "number of simulated sites")
		strategy  = flag.String("strategy", "hash", "partitioning: hash, semantic-hash, metis, best")
		mode      = flag.String("mode", "full", "engine mode: basic, la, lo, full")
		stats     = flag.Bool("stats", true, "print per-stage statistics")
		evalWork  = flag.Int("eval-workers", 0, "per-query evaluation worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	)
	flag.Parse()

	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "gstored: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	q := queryArg("gstored", *queryText, *queryFile)
	g, db := openDB(*dataPath, "", 0, gstored.Config{Sites: *sites, Strategy: *strategy, Mode: parseMode(*mode), EvalWorkers: *evalWork})
	fmt.Printf("loaded %d triples over %d sites (%s partitioning)\n", g.Len(), db.NumSites(), db.StrategyName)

	res, err := db.Query(q)
	if err != nil {
		fail(err)
	}
	cols := db.Columns(res.Query)
	fmt.Println(strings.Join(cols, "\t"))
	for _, row := range db.Rows(res) {
		fmt.Println(strings.Join(row, "\t"))
	}
	if *stats {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "\n%s: %d matches (%d local, %d crossing) in %v\n",
			s.Mode, s.NumMatches, s.NumLocalMatches, s.NumCrossingMatches, s.TotalTime)
		sep := "stages: "
		for i, st := range s.Stages {
			fmt.Fprintf(os.Stderr, "%s%s %v (%d B)", sep, engine.StageNames[i], st.Time, st.Shipment)
			sep = ", "
		}
		fmt.Fprintf(os.Stderr, "\n%d LPMs, %d LEC features, %d retained\n",
			s.NumPartialMatches, s.NumLECFeatures, s.NumRetainedPartialMatches)
		fmt.Fprintf(os.Stderr, "network: %d bytes in %d messages\n", s.TotalShipment, s.Messages)
	}
}

// explainMain executes one query with tracing attached and prints the
// ExplainReport as indented JSON — the CLI twin of /sparql?explain=1,
// for diagnosing a query without standing up a server.
func explainMain(args []string) {
	fs := flag.NewFlagSet("gstored explain", flag.ExitOnError)
	var (
		dataPath  = fs.String("data", "", "N-Triples input file")
		dataset   = fs.String("dataset", "", "generated benchmark dataset: lubm, yago, btc")
		scale     = fs.Int("scale", 0, "dataset scale (universities for lubm; 0 = default)")
		queryText = fs.String("query", "", "SPARQL query text")
		queryFile = fs.String("queryfile", "", "file containing the SPARQL query")
		sites     = fs.Int("sites", 12, "number of simulated sites")
		strategy  = fs.String("strategy", "hash", "partitioning: hash, semantic-hash, metis, best")
		mode      = fs.String("mode", "full", "engine mode: basic, la, lo, full")
	)
	fs.Parse(args)
	if (*dataPath == "") == (*dataset == "") {
		fmt.Fprintln(os.Stderr, "gstored explain: provide exactly one of -data or -dataset")
		os.Exit(2)
	}
	text := queryArg("gstored explain", *queryText, *queryFile)
	_, db := openDB(*dataPath, *dataset, *scale, gstored.Config{Sites: *sites, Strategy: *strategy, Mode: parseMode(*mode)})
	q, err := db.Parse(text)
	if err != nil {
		fail(err)
	}
	tr := trace.New()
	res, err := db.QueryGraphContext(trace.NewContext(context.Background(), tr), q)
	if err != nil {
		fail(err)
	}
	// No serving layer here, so there is no cache to have a disposition.
	rep := server.BuildExplain(db, q, text, res, tr, "ordered", server.ExplainCache{Disposition: "disabled", Cacheable: true})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fail(err)
	}
}

// workerMain runs a fragment-hosting worker process: it owns no data at
// start, receives its fragments from the coordinator's epoch installs,
// and serves candidate/partial-evaluation RPCs against them.
// Point a coordinator at it with `gstored serve -site-workers host:port`.
func workerMain(args []string) {
	fs := flag.NewFlagSet("gstored worker", flag.ExitOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:8090", "RPC listen address")
		evalWork = fs.Int("eval-workers", 0, "evaluation worker pool size (0 = GOMAXPROCS)")
	)
	fs.Parse(args)
	w := remote.NewWorker(*evalWork)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	fmt.Printf("worker listening on %s (fragments arrive with the first epoch install)\n", ln.Addr())
	fail(w.Serve(ln))
}

// serveMain runs the SPARQL 1.1 Protocol server over a loaded or
// generated dataset.
func serveMain(args []string) {
	fs := flag.NewFlagSet("gstored serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8080", "HTTP listen address")
		dataPath    = fs.String("data", "", "N-Triples input file")
		dataset     = fs.String("dataset", "", "generated benchmark dataset: lubm, yago, btc")
		scale       = fs.Int("scale", 0, "dataset scale (universities for lubm; 0 = default)")
		sites       = fs.Int("sites", 12, "number of simulated sites")
		strategy    = fs.String("strategy", "hash", "partitioning: hash, semantic-hash, metis, best")
		mode        = fs.String("mode", "full", "engine mode: basic, la, lo, full")
		cache       = fs.Int("cache", 256, "result-cache entries (negative disables)")
		cacheRows   = fs.Int("cache-max-rows", 0, "max projected rows admitted per cache entry; larger results are answered but not cached (0 = default 65536, negative = uncapped)")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-query time limit")
		maxInFlight = fs.Int("max-inflight", 64, "admitted-query limit before shedding with 503")
		workers     = fs.Int("workers", 0, "queries executing concurrently (0 = GOMAXPROCS)")
		evalWork    = fs.Int("eval-workers", 0, "per-query evaluation worker pool size bounding intra-query parallelism (0 = GOMAXPROCS, 1 = sequential)")
		unordered   = fs.Bool("unordered", false, "first-row-early delivery: stream rows as produced (no canonical sort, LIMIT cancels remaining work, cache bypassed)")
		writable    = fs.Bool("writable", false, "accept SPARQL updates (INSERT DATA / DELETE DATA) via POST /sparql; read-only (403) otherwise")
		slowMs      = fs.Int("slow-query-ms", -1, "log queries whose wall time reaches this many milliseconds as structured JSON (0 logs every query, negative disables)")
		slowLog     = fs.String("slow-query-log", "", "slow-query log file, size-rotated at -slow-query-log-max-bytes (default: stderr)")
		slowLogMax  = fs.Int64("slow-query-log-max-bytes", 0, "rotate the slow-query log file at this size (0 = default 64 MiB)")
		debugAddr   = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); disabled when empty")
		siteWorkers = fs.String("site-workers", "", "comma-separated worker-process addresses (from `gstored worker`); fragments are shipped to and hosted by them, sites map round-robin; empty keeps every site in-process")
	)
	fs.Parse(args)
	if (*dataPath == "") == (*dataset == "") {
		fmt.Fprintln(os.Stderr, "gstored serve: provide exactly one of -data or -dataset")
		os.Exit(2)
	}

	dbCfg := gstored.Config{Sites: *sites, Strategy: *strategy, Mode: parseMode(*mode), EvalWorkers: *evalWork}
	if *siteWorkers != "" {
		for _, part := range strings.Split(*siteWorkers, ",") {
			if a := strings.TrimSpace(part); a != "" {
				dbCfg.Workers = append(dbCfg.Workers, a)
			}
		}
	}
	g, db := openDB(*dataPath, *dataset, *scale, dbCfg)
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
		if *slowLog != "" {
			w, err := server.NewRotatingWriter(*slowLog, *slowLogMax)
			if err != nil {
				fail(err)
			}
			defer w.Close()
			cfg.SlowQueryLog = w
		} else {
			cfg.SlowQueryLog = os.Stderr
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
				fmt.Fprintf(os.Stderr, "gstored serve: debug listener: %v\n", err)
			}
		}()
		fmt.Printf("pprof debug listener on %s\n", *debugAddr)
	}
	srv := server.New(db, cfg)
	fmt.Printf("serving %d triples over %d sites (%s partitioning, %s) on %s\n",
		g.Len(), db.NumSites(), db.StrategyName, db.Mode(), *addr)
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
	fail(hs.ListenAndServe())
}

// queryArg returns the query text of -query, or the contents of
// -queryfile when that is set; with neither it exits with status 2,
// naming cmd.
func queryArg(cmd, text, file string) string {
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			fail(err)
		}
		text = string(b)
	}
	if text == "" {
		fmt.Fprintf(os.Stderr, "%s: provide -query or -queryfile\n", cmd)
		os.Exit(2)
	}
	return text
}

// openDB loads the graph (see loadGraph) and opens a database over it
// under cfg, exiting on failure.
func openDB(dataPath, dataset string, scale int, cfg gstored.Config) (*gstored.Graph, *gstored.DB) {
	g := loadGraph(dataPath, dataset, scale)
	db, err := gstored.Open(g, cfg)
	if err != nil {
		fail(err)
	}
	return g, db
}

// loadGraph reads an N-Triples file or generates a benchmark dataset.
func loadGraph(dataPath, dataset string, scale int) *gstored.Graph {
	if dataPath != "" {
		f, err := os.Open(dataPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		g, err := gstored.ReadNTriples(f)
		if err != nil {
			fail(err)
		}
		return g
	}
	switch strings.ToLower(dataset) {
	case "lubm":
		return gstored.GenerateLUBM(scale).Graph
	case "yago":
		return gstored.GenerateYAGO(scale).Graph
	case "btc":
		return gstored.GenerateBTC(scale).Graph
	default:
		fmt.Fprintf(os.Stderr, "gstored: unknown dataset %q (want lubm, yago or btc)\n", dataset)
		os.Exit(2)
		return nil
	}
}

func parseMode(mode string) gstored.Mode {
	switch strings.ToLower(mode) {
	case "basic":
		return gstored.ModeBasic
	case "la":
		return gstored.ModeLA
	case "lo":
		return gstored.ModeLO
	case "full", "":
		return gstored.ModeFull
	default:
		fmt.Fprintf(os.Stderr, "gstored: unknown mode %q\n", mode)
		os.Exit(2)
		return gstored.ModeFull
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "gstored: %v\n", err)
	os.Exit(1)
}
