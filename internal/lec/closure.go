package lec

import (
	"slices"
	"sync/atomic"

	"gstored/internal/key"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// closure is one walk's read-only half, shared by its chunks: the
// canonical-root search behind Algorithm 2 (feature pruning), Algorithm 3
// (LEC assembly) and the baseline join of [18]. Every connected,
// sign-disjoint, mapping-consistent combination of features is grown
// depth-first from its minimum-index member, visited once (a seen set
// keyed by the sorted member set), and complete when its signs cover the
// query (Theorem 4: a full cover matches every edge). The walk owns the
// join condition of Definition 9; what a combination's members make
// together is the caller's to build from the member set.
type closure struct {
	q *query.Graph
	// features are what the walk joins (in the Basic join, one singleton
	// feature per partial match): their LECSigns and interned mappings. A
	// crossing edge has exactly one endpoint inside the feature's
	// fragment, so of the two endpoint bits of a mapping's query edge Sign
	// holds exactly one; the crossing-edge index relies on it. Features
	// not all from one Compute call are interned anew, in place.
	features []*Feature
	// allPairs proposes every larger-index feature as a partner instead of
	// consulting the crossing-edge index: the same closure, with sharing
	// re-discovered by the join step at the price of the attempts the
	// index avoids. It is gStoreD-Basic, and nothing else differs.
	allPairs bool
	// cancel, when non-nil, is polled every 256 expansions by every chunk;
	// returning true ends the walk.
	cancel func() bool

	// The index: the features' table of interned mappings and, unless
	// allPairs, post[postOff[2*id+side]:postOff[2*id+side+1]], listing in
	// ascending order the features holding mapping id whose internal
	// endpoint is the query edge's From (side 0) or To (side 1); semijoin
	// reads its verdict off the lists.
	tab     *table
	postOff []int32
	post    []int32
	sj      Semijoin
}

// mapping is an interned crossing-edge mapping: its query edge and the
// data vertices at the edge's two ends (the label took part in interning
// and is not needed again).
type mapping struct {
	qedge int32
	s, o  rdf.TermID
}

// walks counts Walk calls in this process; see Walks.
var walks atomic.Int64

// Walks reports how many closure walks have started in this process. It
// only ever grows: tests read it before and after an execution to hold
// the engine to one walk per query.
func Walks() int64 { return walks.Load() }

// state is one combination: the union sign, the sorted member indices,
// the crossing-edge endpoint bound to each query vertex (vbind) and the
// id of the crossing edge chosen for each query edge (qmap, -1 when
// none).
type state struct {
	sign    uint64
	members []int
	vbind   []rdf.TermID
	qmap    []int32
}

// walker is one chunk's private half of a walk: its counters, its sink
// and the members of the combinations it completed, the candidate
// extension of the state being expanded (next), the depth-first frontier,
// and the scratch of partner enumeration and the seen set.
type walker struct {
	c    *closure
	full uint64
	stop *atomic.Bool // set by the first chunk that ends the walk early

	attempts, states int
	sink             Sink   // nil: the verdict only
	retained         []bool // the members of the combinations it completed

	next state
	// frontier is the depth-first stack; free holds the states it has
	// finished with, whose slices push reuses.
	frontier []state
	free     []state
	seen     key.Set[int] // the current root's member sets of three and more
	buf      []int        // partners scratch
	polls    uint
}

// buildIndex interns the features' mappings unless one Compute call did
// and, unless allPairs, builds the side-split posting lists.
func (c *closure) buildIndex() {
	total := 0
	for _, f := range c.features {
		total += len(f.Mappings)
	}
	if len(c.features) > 0 {
		c.tab = c.features[0].tab
	}
	if c.tab == nil || slices.ContainsFunc(c.features, func(f *Feature) bool { return f.tab != c.tab }) {
		c.tab = &table{}
		for _, f := range c.features {
			f.ids, f.tab = c.tab.intern(nil, f.Mappings), c.tab
		}
	}
	if c.allPairs {
		return
	}
	// Counting sort of (feature, mapping) pairs by (mapping, side): count,
	// prefix-sum, then place in feature order so every list is ascending.
	c.postOff = make([]int32, 2*len(c.tab.edges)+1)
	for i, f := range c.features {
		for _, id := range f.ids {
			c.postOff[c.slot(i, id)+1]++
		}
	}
	for s := 1; s < len(c.postOff); s++ {
		c.postOff[s] += c.postOff[s-1]
	}
	c.post = make([]int32, total)
	for i, f := range c.features {
		for _, id := range f.ids {
			s := c.slot(i, id)
			c.post[c.postOff[s]] = int32(i)
			c.postOff[s]++
		}
	}
	// Placing advanced every list's start to its end: shift back.
	copy(c.postOff[1:], c.postOff)
	c.postOff[0] = 0
	c.semijoin()
}

// semijoin is one round of semijoin reduction over the posting lists: a
// mapping is dead on a side when the other side's list is empty, as
// whoever covers the other endpoint must map the query edge to the same
// crossing edge (Definition 5, condition 5), and a feature is live when
// none of its mappings is dead. The same pass draws the sample (inSample)
// and counts, per fragment, its distinct mappings and its sampled and
// sampled-dead ones over a mapping's two adjacent lists, with a stamp
// array; per feature, it flags a dead sampled mapping and counts the
// unsampled ones.
func (c *closure) semijoin() {
	sj := &c.sj
	ids := int32(len(c.tab.edges))
	sampled := make([]bool, ids)
	for id := range ids {
		sampled[id] = inSample(c.tab.edges[id])
	}
	sj.Live = make([]bool, len(c.features))
	sj.SampleDead = make([]bool, len(c.features))
	sj.Unsampled = make([]int32, len(c.features))
	frags := 0
	for i, f := range c.features {
		sj.Live[i] = true
		for _, id := range f.ids {
			s := c.slot(i, id) ^ 1
			dead := c.postOff[s] == c.postOff[s+1]
			sj.Live[i] = sj.Live[i] && !dead
			if !sampled[id] {
				sj.Unsampled[i]++
			} else if dead {
				sj.SampleDead[i] = true
			}
		}
		frags = max(frags, f.Frag+1)
	}
	sj.Mappings = make([]int, frags)
	sj.Sampled = make([]int, frags)
	sj.SampledDead = make([]int, frags)
	last := make([]int32, frags)
	for id := range ids {
		for side := range int32(2) {
			s := 2*id + side
			// On this side, id is dead when the other side holds nothing.
			dead := c.postOff[s^1] == c.postOff[s^1+1]
			for _, i := range c.post[c.postOff[s]:c.postOff[s+1]] {
				f := c.features[i].Frag
				if last[f] == id+1 {
					continue
				}
				last[f] = id + 1
				sj.Mappings[f]++
				if sampled[id] {
					sj.Sampled[f]++
					if dead {
						sj.SampledDead[f]++
					}
				}
			}
		}
	}
}

// sampleRate is the semijoin sample's rate: 1 in sampleRate mappings.
const sampleRate = 16

// inSample reports whether mapping m is in the semijoin's sample. It
// hashes the query edge and the crossing edge's two data vertices with
// splitmix64's finalizer, which is fixed across processes (maphash's seed
// is not): the draw depends on the mapping alone, so both sides of a
// crossing edge sample it or neither does, and the sample's dead verdict
// is the full verdict's on the mappings it holds.
func inSample(m mapping) bool {
	return mix64(mix64(uint64(uint32(m.qedge))<<32|uint64(m.s))^uint64(m.o))%sampleRate == 0
}

// mix64 is splitmix64's output function.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// slot is the posting list of feature i under mapping id: side 0 when the
// feature's internal endpoint is the query edge's From, side 1 when its To.
func (c *closure) slot(i int, id int32) int32 {
	if c.features[i].Sign>>uint(c.q.Edges[c.tab.edges[id].qedge].From)&1 == 1 {
		return 2 * id
	}
	return 2*id + 1
}

// run walks the combinations rooted at features [lo, hi), reporting
// false when the walk was ended early.
func (w *walker) run(lo, hi int) bool {
	for root := lo; root < hi; root++ {
		if w.c.sj.Live != nil && !w.c.sj.Live[root] || !w.start(root) {
			continue
		}
		// One root's large closure must not tax the roots after it:
		// clearing a table costs its capacity, not its length.
		if w.seen.Len() > 256 {
			w.seen = key.Set[int]{}
		} else {
			w.seen.Reset()
		}
		// A single feature can never be complete (it has a crossing edge,
		// hence an extended endpoint vertex), but reach guards anyway.
		if !w.reach() {
			return false
		}
		for len(w.frontier) > 0 {
			if w.polls&0xff == 0 && (w.stop.Load() || w.c.cancel != nil && w.c.cancel()) {
				return false
			}
			w.polls++
			s := w.frontier[len(w.frontier)-1]
			w.frontier = w.frontier[:len(w.frontier)-1]
			if !w.expand(&s, root) {
				return false
			}
			w.free = append(w.free, s)
		}
	}
	return true
}

// expand tries every partner of s and reaches the extensions that are
// new; it reports false when the sink ended the walk.
func (w *walker) expand(s *state, root int) bool {
	for _, i := range w.partners(s, root) {
		w.attempts++
		if !w.step(s, i) {
			continue
		}
		// A pair is reached once, from its root; only larger
		// combinations have several growth orders to deduplicate.
		if len(w.next.members) > 2 {
			if _, added := w.seen.Add(w.next.members); !added {
				continue
			}
		}
		w.states++
		if !w.reach() {
			return false
		}
	}
	return true
}

// reach pushes next onto the frontier unless it covers the query, which
// nothing can extend (any further feature overlaps its sign): then its
// members are marked retained and handed to the sink, and reach reports
// false when the sink ends the walk.
func (w *walker) reach() bool {
	if w.next.sign != w.full {
		w.push()
		return true
	}
	for _, m := range w.next.members {
		w.retained[m] = true
	}
	return w.sink == nil || w.sink(w.next.members)
}

// push copies next onto the frontier, into the slices of a state the
// walk has finished with when there is one.
func (w *walker) push() {
	var s state
	if n := len(w.free); n > 0 {
		s, w.free = w.free[n-1], w.free[:n-1]
	}
	s.sign = w.next.sign
	s.members = append(s.members[:0], w.next.members...)
	s.vbind = append(s.vbind[:0], w.next.vbind...)
	s.qmap = append(s.qmap[:0], w.next.qmap...)
	w.frontier = append(w.frontier, s)
}

// partners lists, in ascending order, the features worth trying against s:
// larger than the root (canonical-root enumeration) and — unless allPairs,
// which proposes every non-member — live and holding one of s's mappings
// from the side s's sign does not cover. A holder on a covered side
// overlaps s's sign, members included, so a mapping covered on both sides
// proposes nobody. The result is valid until the next call.
func (w *walker) partners(s *state, root int) []int {
	c := w.c
	out := w.buf[:0]
	if c.allPairs {
		mi := 0
		for i := root + 1; i < len(c.features); i++ {
			for mi < len(s.members) && s.members[mi] < i {
				mi++
			}
			if mi == len(s.members) || s.members[mi] != i {
				out = append(out, i)
			}
		}
		w.buf = out
		return out
	}
	lists := 0
	for e, id := range s.qmap {
		if id < 0 {
			continue
		}
		from := s.sign >> uint(c.q.Edges[e].From) & 1
		if from == s.sign>>uint(c.q.Edges[e].To)&1 {
			continue
		}
		// s covers From: ask for the holders whose internal end is To.
		slot := 2*id + int32(from)
		list := c.post[c.postOff[slot]:c.postOff[slot+1]]
		k, _ := slices.BinarySearch(list, int32(root+1))
		if k < len(list) {
			lists++
		}
		for _, i := range list[k:] {
			if c.sj.Live[i] {
				out = append(out, int(i))
			}
		}
	}
	if lists > 1 {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	w.buf = out
	return out
}

// start fills next with the one-feature state of root, reporting false when
// the feature's own mappings contradict each other.
func (w *walker) start(root int) bool {
	c, out := w.c, &w.next
	out.sign = c.features[root].Sign
	out.members = append(out.members[:0], root)
	out.vbind, out.qmap = out.vbind[:0], out.qmap[:0]
	for range c.q.Vertices {
		out.vbind = append(out.vbind, rdf.NoTerm)
	}
	for range c.q.Edges {
		out.qmap = append(out.qmap, -1)
	}
	for _, id := range c.features[root].ids {
		if !c.applyMapping(out.vbind, out.qmap, id) {
			return false
		}
	}
	return true
}

// step is the join condition, stated once: feature i extends s when their
// LECSigns are disjoint (Theorem 4 condition 2), they share at least one
// crossing-edge mapping, and no query edge ends up on two crossing edges
// (Definition 9) nor any query vertex on two crossing-edge endpoints (a
// check beyond Definition 9, see DESIGN.md "One join closure"). On
// success next holds the extended state.
func (w *walker) step(s *state, i int) bool {
	c, out := w.c, &w.next
	if s.sign&c.features[i].Sign != 0 {
		return false
	}
	out.vbind = append(out.vbind[:0], s.vbind...)
	out.qmap = append(out.qmap[:0], s.qmap...)
	shared := false
	for _, id := range c.features[i].ids {
		if s.qmap[c.tab.edges[id].qedge] == id {
			shared = true
		} else if !c.applyMapping(out.vbind, out.qmap, id) {
			return false
		}
	}
	if !shared {
		return false
	}
	out.sign = s.sign | c.features[i].Sign
	at, _ := slices.BinarySearch(s.members, i)
	out.members = slices.Insert(append(out.members[:0], s.members...), at, i)
	return true
}

func fullSign(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// applyMapping folds crossing-edge mapping id into the per-vertex and
// per-edge binding tables, reporting consistency.
func (c *closure) applyMapping(vbind []rdf.TermID, qmap []int32, id int32) bool {
	m := c.tab.edges[id]
	e := c.q.Edges[m.qedge]
	if cur := qmap[m.qedge]; cur >= 0 {
		return cur == id // Definition 9 condition 3
	}
	if b := vbind[e.From]; b != rdf.NoTerm && b != m.s {
		return false
	}
	if b := vbind[e.To]; b != rdf.NoTerm && b != m.o {
		return false
	}
	qmap[m.qedge] = id
	vbind[e.From] = m.s
	vbind[e.To] = m.o
	return true
}
