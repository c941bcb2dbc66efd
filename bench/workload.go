package main

import (
	"fmt"
	"math/rand"
	"strings"

	"gstored/internal/rdf"
	"gstored/internal/workload"
)

const lubmOnt = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

// Fixed deployment of every workload: the paper's 12 sites, hash
// partitioning, mode Full, default GOMAXPROCS and -eval-workers.
const (
	numSites      = 12
	warmupPasses  = 6
	calibPerPass  = 3
	updateTriples = 8
	// deltaFragments is how many of the 12 fragments the update touches.
	// An update's cost is proportional to the fragments it rebuilds, and
	// where hashing puts a new vertex is luck; pinning the count keeps
	// update_p50_ms comparable from seed to seed.
	deltaFragments = 7
	// nominalSeconds is the BENCHMARK.json run_seconds the pass counts
	// below are sized for; -seconds scales the timed pass count linearly
	// from it, so op counts stay a pure function of the flags.
	nominalSeconds = 20
)

// spec is one workload's fixed shape. Nothing in it is time-based: a run
// is ColdStarts cold starts, warmupPasses warm-up passes, then Passes
// timed passes.
type spec struct {
	Name string
	// Why is the one-line rationale BENCHMARK.json carries.
	Why          string
	Universities int
	Unordered    bool
	// CacheDisabled passes -cache -1; otherwise the server keeps its
	// default 256-entry result cache.
	CacheDisabled bool
	// SiteWorkers is how many `gstored worker` processes host the
	// fragments (0 = sites in-process).
	SiteWorkers int
	Passes      int
	ColdStarts  int
	// MixReads > 0 makes each pass MixReads Zipf-drawn reads from the
	// parameterised pool instead of a fixed list.
	MixReads int
}

var specs = []spec{
	{
		Name:          "crossing",
		Why:           "LUBM(32), sites in-process, no cache: LQ1/LQ7/LQ6/LQ3 spend their time in partial evaluation, LEC pruning and assembly; serializer, cache and transport do nothing",
		Universities:  32,
		CacheDisabled: true,
		Passes:        76,
		ColdStarts:    15,
	},
	{
		Name:          "wired",
		Why:           "crossing's data and queries with fragments hosted by two gstored worker processes: wired minus crossing isolates the RPC transport, and shipment is measured at a socket",
		Universities:  32,
		CacheDisabled: true,
		SiteWorkers:   2,
		Passes:        52,
		ColdStarts:    11,
	},
	{
		Name:          "star_stream",
		Why:           "LUBM(128), unordered, no cache: LQ2 streamed as JSON, as TSV and with LIMIT 100 takes the star fast path, so store matching, serializers and the HTTP write path do the work and lec/assembly none",
		Universities:  128,
		Unordered:     true,
		CacheDisabled: true,
		Passes:        66,
		ColdStarts:    9,
	},
	{
		Name:         "serve_mix",
		Why:          "LUBM(128), default 256-entry cache, 150 Zipf(1.1) reads per pass from 1152 small selective queries, then an update that flushes the cache: parsing, canonical keys, cache and planning dominate",
		Universities: 128,
		Passes:       38,
		ColdStarts:   9,
		MixReads:     150,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke shrinks a spec to LUBM(2), three timed passes and one cold start:
// the same code paths in a couple of seconds, for the tests.
func (s spec) smoke() spec {
	s.Universities = 2
	s.Passes = 3
	s.ColdStarts = 1
	if s.MixReads > 0 {
		s.MixReads = 12
	}
	return s
}

// withPasses returns s with about n timed passes: n rounded down to an
// even count (so that a run ends with the data back in its base state),
// at least 4.
func (s spec) withPasses(n int) spec {
	s.Passes = max(4, n-n%2)
	return s
}

// scaled sizes the timed pass count for a -seconds budget.
func (s spec) scaled(seconds int) spec {
	return s.withPasses(s.Passes * seconds / nominalSeconds)
}

// op is one read request of a pass.
type op struct {
	// Template names the query shape; client.<Template>_p50_ms reports it.
	Template string
	// Query is the SPARQL text sent to the server.
	Query string
	// Oracle is the text the oracle evaluates: Query without its LIMIT.
	Oracle string
	TSV    bool
	// Limit > 0 marks an unordered LIMIT query: any Limit rows of the
	// oracle's answer are correct.
	Limit int
}

// allTemplates is every template any workload issues, in reporting order.
// BENCHMARK.json declares one client.<t>_p50_ms per entry; a workload
// reports 0 for templates it does not issue.
var allTemplates = []string{"LQ1", "LQ7", "LQ6", "LQ3", "LQ2_json", "LQ2_tsv", "LQ2_limit", "LQ4", "LQ5"}

// plan is a workload instantiated for one seed: the dataset, every
// pass's op list and the update pair. It is a pure function of
// (spec, seed).
type plan struct {
	Spec  spec
	Seed  int64
	Graph *rdf.Graph
	// Passes[i] is the op list of pass i (warm-up passes first). Fixed
	// workloads share one slice between all passes.
	Passes [][]op
	// Templates lists the distinct templates the workload issues, each
	// with a few sample ops for the traced run to drive.
	Templates []templateSample
	// Delta is the 8 ground triples the update inserts on odd passes and
	// deletes on even ones. newPlan draws where they go; buildOracle
	// settles the new entities' names (see setDelta).
	Delta  [updateTriples][3]rdf.Term
	Insert string
	Delete string
	// deltaAt is the (university, department) of the new student and of
	// the new professor; deltaInterest the professor's research topic.
	deltaAt       [4]int
	deltaInterest int
}

type templateSample struct {
	Name string
	Ops  []op
}

func selectQuery(vars, body string) string {
	return "PREFIX ub: <" + lubmOnt + ">\nSELECT " + vars + " WHERE { " + body + " }"
}

func lq1() string {
	return selectQuery("?x ?y ?c", "?y ub:advisor ?x . ?y ub:takesCourse ?c . ?x ub:teacherOf ?c")
}

func lq2() string {
	return selectQuery("?x ?y ?c", "?x ub:memberOf ?y . ?x ub:takesCourse ?c . ?x ub:name ?n")
}

func lq3(u int) string {
	uri := workload.LubmUniversityURI(u)
	return selectQuery("?x ?d", "?x ub:doctoralDegreeFrom <"+uri+"> . ?x ub:worksFor ?d . ?d ub:subOrganizationOf <"+uri+">")
}

func lq4(u, d int) string {
	dept := workload.LubmDeptURI(u, d)
	return selectQuery("?x ?n ?e", "?x ub:worksFor <"+dept+"> . ?x ub:name ?n . ?x ub:emailAddress ?e")
}

func lq5(u, d int) string {
	dept := workload.LubmDeptURI(u, d)
	return selectQuery("?x ?i", "?x ub:headOf <"+dept+"> . ?x ub:worksFor <"+dept+"> . ?x ub:researchInterest ?i")
}

func lq6(from, at int) string {
	return selectQuery("?x ?d", "?x ub:undergraduateDegreeFrom <"+workload.LubmUniversityURI(from)+"> . ?x ub:memberOf ?d . ?d ub:subOrganizationOf <"+workload.LubmUniversityURI(at)+">")
}

func lq7() string {
	return selectQuery("?x ?y ?c", "?x ub:teacherOf ?c . ?y ub:takesCourse ?c . ?y ub:memberOf ?d")
}

// lq6From picks the degree-granting university of an LQ6 instance so the
// answer is non-empty: the generator gives graduate student i (i even)
// of university u a degree from university (u+1+i) mod U.
func lq6From(at, k, universities int) int {
	from := (at + 1 + 2*k) % universities
	if from == at {
		from = (at + 1) % universities
	}
	return from
}

func readOp(template, q string) op { return op{Template: template, Query: q, Oracle: q} }

const deptsPerUniversity = 3

// zipfStreamSeed fixes serve_mix's sequence of popularity ranks.
const zipfStreamSeed = 20190408

// newPlan generates the dataset and op lists of s for seed. The seed
// drives the LUBM generator, the query parameters and the update triples;
// the same (spec, seed) always yields the same plan.
func newPlan(s spec, seed int64) *plan {
	r := rand.New(rand.NewSource(seed))
	p := &plan{Spec: s, Seed: seed}
	p.Graph = workload.LUBM(workload.LUBMConfig{Universities: s.Universities, Seed: seed, DeptsPerUniversity: deptsPerUniversity})
	U := s.Universities
	total := warmupPasses + s.Passes

	switch {
	case s.MixReads > 0:
		// Pool: one LQ4-, one LQ5- and one LQ6-shaped query per department
		// (the LQ6 instance is parameterised by the department's
		// university pair). Popularity rank r holds shape r mod 3, and
		// the rank sequence of every pass is drawn from a fixed stream:
		// the seed decides which department sits at which rank, not how
		// the three shapes or hits and misses are mixed — those would
		// otherwise swing cost and shipment by tens of percent from seed
		// to seed (a hot LQ6 costs 10x a hot LQ5).
		depts := r.Perm(U * deptsPerUniversity)
		pool := make([]op, 0, 3*len(depts))
		for _, i := range depts {
			u, d := i/deptsPerUniversity, i%deptsPerUniversity
			pool = append(pool,
				readOp("LQ4", lq4(u, d)),
				readOp("LQ5", lq5(u, d)),
				readOp("LQ6", lq6(lq6From(u, d, U), u)))
		}
		z := rand.NewZipf(rand.New(rand.NewSource(zipfStreamSeed)), 1.1, 1, uint64(len(pool)-1))
		p.Passes = make([][]op, total)
		for i := range p.Passes {
			ops := make([]op, s.MixReads)
			for j := range ops {
				ops[j] = pool[z.Uint64()]
			}
			p.Passes[i] = ops
		}
		// Traced-run samples: the five hottest instances of each shape.
		for _, name := range []string{"LQ4", "LQ5", "LQ6"} {
			ts := templateSample{Name: name}
			for _, o := range pool {
				if o.Template == name && len(ts.Ops) < 5 {
					ts.Ops = append(ts.Ops, o)
				}
			}
			p.Templates = append(p.Templates, ts)
		}
	case s.Unordered:
		limited := op{Template: "LQ2_limit", Query: lq2() + " LIMIT 100", Oracle: lq2(), Limit: 100}
		tsv := op{Template: "LQ2_tsv", Query: lq2(), Oracle: lq2(), TSV: true}
		p.setFixed(total, readOp("LQ2_json", lq2()), tsv, limited)
	default:
		at := r.Intn(U)
		p.setFixed(total,
			readOp("LQ1", lq1()),
			readOp("LQ7", lq7()),
			readOp("LQ6", lq6(lq6From(at, r.Intn(4), U), at)),
			readOp("LQ3", lq3(r.Intn(U))))
	}

	p.deltaAt = [4]int{r.Intn(U), r.Intn(deptsPerUniversity), r.Intn(U), r.Intn(deptsPerUniversity)}
	p.deltaInterest = r.Intn(20)
	p.setDelta(0)
	return p
}

// setDelta composes the update's 8 triples for candidate k: a new graduate
// student whose advisor teaches the course the student takes (one more
// LQ1 triangle, LQ7 and LQ2 row) and a new professor with name and e-mail
// (one more LQ4 row), both in seeded departments — so the two data states
// answer differently and a stale or half-applied write is caught by the
// oracle. k only varies the new entities' names; buildOracle walks k
// until the delta touches exactly deltaFragments fragments.
func (p *plan) setDelta(k int) {
	su, sd, pu, pd := p.deltaAt[0], p.deltaAt[1], p.deltaAt[2], p.deltaAt[3]
	ent := func(u, d int, name string) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://www.Department%d.University%d.edu/%s", d, u, name))
	}
	pred := func(name string) rdf.Term { return rdf.NewIRI(lubmOnt + name) }
	tag := fmt.Sprintf("%d_%d", p.Seed, k)
	student := ent(su, sd, "BenchStudent"+tag)
	prof := ent(pu, pd, "BenchProfessor"+tag)
	p.Delta = [updateTriples][3]rdf.Term{
		{student, pred("memberOf"), rdf.NewIRI(workload.LubmDeptURI(su, sd))},
		{student, pred("name"), rdf.NewLiteral("BenchStudent" + tag)},
		{student, pred("advisor"), ent(su, sd, "FullProfessor0")},
		{student, pred("takesCourse"), ent(su, sd, "Course0")},
		{prof, pred("worksFor"), rdf.NewIRI(workload.LubmDeptURI(pu, pd))},
		{prof, pred("name"), rdf.NewLiteral("BenchProfessor" + tag)},
		{prof, pred("emailAddress"), rdf.NewLiteral(fmt.Sprintf("bench%s@dept%d.univ%d.edu", tag, pd, pu))},
		{prof, pred("researchInterest"), rdf.NewLiteral(fmt.Sprintf("Research%d", p.deltaInterest))},
	}
	var body strings.Builder
	for _, t := range p.Delta {
		fmt.Fprintf(&body, "%s %s %s .\n", t[0], t[1], t[2])
	}
	p.Insert = "INSERT DATA {\n" + body.String() + "}"
	p.Delete = "DELETE DATA {\n" + body.String() + "}"
}

// setFixed gives every pass the same op list and one traced-run sample
// per op.
func (p *plan) setFixed(total int, ops ...op) {
	p.Passes = make([][]op, total)
	for i := range p.Passes {
		p.Passes[i] = ops
	}
	for _, o := range ops {
		p.Templates = append(p.Templates, templateSample{Name: o.Template, Ops: []op{o}})
	}
}

// stateOfPass is the data state (0 = base, 1 = delta inserted) pass i's
// reads see: pass i is followed by an insert when i is even and by the
// matching delete when i is odd.
func stateOfPass(i int) int { return i % 2 }

func (p *plan) updateAfterPass(i int) (text string, inserts bool) {
	if i%2 == 0 {
		return p.Insert, true
	}
	return p.Delete, false
}
