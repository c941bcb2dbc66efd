// Package genswap is golden-file input: positives and negatives for
// the one-generation-snapshot-per-scope rule.
package genswap

import "sync/atomic"

type state struct {
	epoch uint64
}

type DB struct {
	state atomic.Pointer[state]
}

// load is a load-like wrapper: calls to it count as generation loads.
func (db *DB) load() *state { return db.state.Load() }

// Epoch is a transitive wrapper (load via load).
func (db *DB) Epoch() uint64 { return db.load().epoch }

func doubleDirect(db *DB) {
	a := db.state.Load()
	b := db.state.Load() // want `generation loaded more than once in this scope`
	_, _ = a, b
}

func doubleViaWrappers(db *DB) {
	s := db.load()
	e := db.Epoch() // want `generation loaded more than once in this scope`
	_, _ = s, e
}

func mixedDirectAndWrapper(db *DB) {
	s := db.state.Load()
	t := db.load() // want `generation loaded more than once in this scope`
	_, _ = s, t
}

// singleSnapshot is the sanctioned shape: one load, threaded onward.
func singleSnapshot(db *DB) uint64 {
	s := db.load()
	return use(s) + use(s)
}

func use(s *state) uint64 { return s.epoch }

// closuresAreOwnScopes: each goroutine body takes its own snapshot —
// a fresh request scope by construction, not a double load.
func closuresAreOwnScopes(db *DB) {
	f := func() *state { return db.load() }
	g := func() *state { return db.load() }
	_, _ = f, g
}

// twoDBsAreTwoRoots: loads rooted at different variables are distinct
// snapshots of distinct clusters.
func twoDBsAreTwoRoots(a, b *DB) {
	s := a.load()
	t := b.load()
	_, _ = s, t
}

type holder struct {
	cached *state
}

func (h *holder) cacheInField(db *DB) {
	h.cached = db.load() // want `generation snapshot stored into field`
}

var cachedGlobal *state

func cacheInGlobal(db *DB) {
	cachedGlobal = db.load() // want `generation snapshot stored into package-level variable`
}

// Pool mimics the bounded evaluation pool: Do runs worker closures
// concurrently. Detection is structural (method Do on type Pool), so
// the stub needs no imports.
type Pool struct{}

func (p *Pool) Do(tasks ...func()) {
	for _, t := range tasks {
		t()
	}
}

// Run mimics the pool's chunk loop: body runs once per chunk.
func (p *Pool) Run(chunks [][2]int, onTask func(), body func(k, lo, hi int)) {
	for k, ch := range chunks {
		body(k, ch[0], ch[1])
	}
}

// Site and Engine mimic the engine's site round built on the pool.
type Site struct{}

type Engine struct {
	sites []*Site
}

func (e *Engine) round(p *Pool, fn func(s *Site)) {
	for _, s := range e.sites {
		fn(s)
	}
}

// workerLoadsGeneration: a pool worker taking its own snapshot can
// straddle a swap mid-query — workers inherit the spawning scope's.
func workerLoadsGeneration(db *DB, p *Pool) {
	p.Do(func() {
		s := db.load() // want `generation loaded inside pool worker`
		_ = s
	})
}

func workerLoadsDirect(db *DB, p *Pool) {
	p.Do(func() {
		s := db.state.Load() // want `generation loaded inside pool worker`
		_ = s
	})
}

func roundWorkerLoads(db *DB, e *Engine, p *Pool) {
	e.round(p, func(s *Site) {
		e := db.Epoch() // want `generation loaded inside pool worker`
		_, _ = s, e
	})
}

// chunkBodyLoadsGeneration: a chunk body is a pool worker too.
func chunkBodyLoadsGeneration(db *DB, p *Pool) {
	p.Run([][2]int{{0, 1}}, nil, func(k, lo, hi int) {
		s := db.load() // want `generation loaded inside pool worker`
		_ = s
	})
}

// chunkBodyInheritsSnapshot: chunk bodies share the spawning scope's
// snapshot.
func chunkBodyInheritsSnapshot(db *DB, p *Pool) {
	snap := db.load()
	p.Run([][2]int{{0, 1}, {1, 2}}, nil, func(k, lo, hi int) { _ = use(snap) })
}

// workerInheritsSnapshot is the sanctioned shape: one load in the
// spawning scope, captured by the workers.
func workerInheritsSnapshot(db *DB, p *Pool) {
	snap := db.load()
	p.Do(func() { _ = use(snap) }, func() { _ = use(snap) })
}

// goroutineInsideWorkerIsFreshScope: a nested closure that is not
// itself a pool worker stays its own request scope.
func goroutineInsideWorkerIsFreshScope(db *DB, p *Pool) {
	p.Do(func() {
		cb := func() *state { return db.load() }
		_ = cb
	})
}

// prebuiltTasksAreOwnScopes: closures not passed directly as pool
// arguments keep the fresh-scope reading (the analyzer is structural;
// indirection through a slice is out of scope).
func prebuiltTasksAreOwnScopes(db *DB, p *Pool) {
	tasks := []func(){func() { _ = db.load() }}
	p.Do(tasks...)
}

// Worker mimics the RPC worker host: generations live in a
// mutex-guarded epoch map, not an atomic pointer, so the structural
// wrapper detection cannot see the accessor. The directive opts it in.
type Worker struct {
	locked bool // stands in for a sync.Mutex: keeps the stub import-free
	gens   map[uint64]*state
}

// generation resolves the fragment view pinned to one epoch.
//
//gstored:genaccessor
func (w *Worker) generation(epoch uint64) *state {
	w.locked = true
	defer func() { w.locked = false }()
	return w.gens[epoch]
}

// handlerSnapshotsTwoEpochs: a handler resolving the generation twice
// can serve half a request against the pre-swap view and half against
// the post-swap view — exactly the straddle the two-phase broadcast
// exists to prevent.
func handlerSnapshotsTwoEpochs(w *Worker, epoch uint64) {
	a := w.generation(epoch)
	b := w.generation(epoch) // want `generation loaded more than once in this scope`
	_, _ = a, b
}

// handlerSingleSnapshot is the sanctioned shape: resolve once, thread
// the handle through the whole request.
func handlerSingleSnapshot(w *Worker, epoch uint64) uint64 {
	s := w.generation(epoch)
	return use(s) + use(s)
}

// directiveSeedsWrapperFixpoint: a wrapper built on a directive-marked
// accessor counts as a loader too, so mixing it with the accessor in
// one scope is still a double snapshot.
func (w *Worker) committed() *state { return w.generation(0) }

func directiveMixedWithWrapper(w *Worker) {
	a := w.generation(1)
	b := w.committed() // want `generation loaded more than once in this scope`
	_, _ = a, b
}
