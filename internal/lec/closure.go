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
	// fs are what the walk joins (in the Basic join, one singleton feature
	// per partial match): their LECSigns and interned mappings. A crossing
	// edge has exactly one endpoint inside the feature's fragment, so of
	// the two endpoint bits of a mapping's query edge Sign holds exactly
	// one; the crossing-edge index relies on it.
	fs *Features
	// allPairs proposes every larger-index feature as a partner instead of
	// consulting the crossing-edge index: the same closure, with sharing
	// re-discovered by the join step at the price of the attempts the
	// index avoids. It is gStoreD-Basic, and nothing else differs.
	allPairs bool
	// cancel, when non-nil, is polled every 256 expansions by every chunk;
	// returning true ends the walk.
	cancel func() bool

	// The index, unless allPairs: post[postOff[2*id+side]:postOff[2*id+side+1]]
	// lists in ascending order the features holding mapping id whose
	// internal endpoint is the query edge's From (side 0) or To (side 1);
	// semijoin reads its verdict off the lists.
	postOff []int32
	post    []int32
	sj      Semijoin
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

// level is one depth of the walk: the combination grown to it and the
// partners it tries.
type level struct {
	state
	partners []int
}

// walker is one chunk's private half of a walk: its counters, its sink
// and the members of the combinations it completed, one level per depth,
// and the seen set.
type walker struct {
	c    *closure
	full uint64
	stop *atomic.Bool // set by the first chunk that ends the walk early

	attempts, states int
	sink             Sink   // nil: the verdict only
	retained         []bool // the members of the combinations it completed

	levels []level
	seen   key.Set[int] // the current root's member sets of three and more
	polls  uint
}

// newLevels preallocates one level per depth, 0 to |V|: members' signs
// are disjoint and none is empty, so a combination has at most one member
// per query vertex. Level 0 holds the empty combination, every vertex
// unbound and every edge unmapped: a root is a step from it.
func newLevels(q *query.Graph) []level {
	ls := make([]level, len(q.Vertices)+1)
	ls[0].vbind = slices.Repeat([]rdf.TermID{rdf.NoTerm}, len(q.Vertices))
	ls[0].qmap = slices.Repeat([]int32{-1}, len(q.Edges))
	return ls
}

// buildIndex builds the side-split posting lists, unless allPairs.
func (c *closure) buildIndex() {
	if c.allPairs {
		return
	}
	// Counting sort of (feature, mapping) pairs by (mapping, side): count,
	// prefix-sum, then place in feature order so every list is ascending.
	n := c.fs.Len()
	c.postOff = make([]int32, 2*len(c.fs.tab.edges)+1)
	for i := range n {
		for _, id := range c.fs.ids(i) {
			c.postOff[c.slot(i, id)+1]++
		}
	}
	for s := 1; s < len(c.postOff); s++ {
		c.postOff[s] += c.postOff[s-1]
	}
	c.post = make([]int32, c.postOff[len(c.postOff)-1])
	for i := range n {
		for _, id := range c.fs.ids(i) {
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
	sj, fs := &c.sj, c.fs
	ids := int32(len(fs.tab.edges))
	sampled := make([]bool, ids)
	for id := range ids {
		sampled[id] = inSample(fs.tab.edges[id])
	}
	n := fs.Len()
	sj.Live = make([]bool, n)
	sj.SampleDead = make([]bool, n)
	sj.Unsampled = make([]int32, n)
	frags := 0
	for i := range n {
		sj.Live[i] = true
		for _, id := range fs.ids(i) {
			s := c.slot(i, id) ^ 1
			dead := c.postOff[s] == c.postOff[s+1]
			sj.Live[i] = sj.Live[i] && !dead
			if !sampled[id] {
				sj.Unsampled[i]++
			} else if dead {
				sj.SampleDead[i] = true
			}
		}
		frags = max(frags, fs.Frag(i)+1)
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
				f := fs.Frag(int(i))
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
	if c.fs.Sign[i]>>uint(c.q.Edges[c.fs.tab.edges[id].qedge].From)&1 == 1 {
		return 2 * id
	}
	return 2*id + 1
}

// run walks the combinations rooted at features [lo, hi), reporting
// false when the walk was ended early.
func (w *walker) run(lo, hi int) bool {
	for root := lo; root < hi; root++ {
		if w.c.sj.Live != nil && !w.c.sj.Live[root] || !w.c.step(&w.levels[0].state, root, &w.levels[1].state) {
			continue
		}
		// One root's large closure must not tax the roots after it:
		// clearing a table costs its capacity, not its length.
		if w.seen.Len() > 256 {
			w.seen = key.Set[int]{}
		} else {
			w.seen.Reset()
		}
		if !w.grow(1, root) {
			return false
		}
	}
	return true
}

// grow completes or extends depth d's combination, reporting false when
// the walk was ended early. One that covers the query, which nothing can
// extend (any further feature overlaps its sign), has its members marked
// retained and handed to the sink. Otherwise each partner's extension is
// written into depth d+1 and, when new, grown in turn.
func (w *walker) grow(d, root int) bool {
	l := &w.levels[d]
	if l.sign == w.full {
		for _, m := range l.members {
			w.retained[m] = true
		}
		return w.sink == nil || w.sink(l.members)
	}
	if w.polls&0xff == 0 && (w.stop.Load() || w.c.cancel != nil && w.c.cancel()) {
		return false
	}
	w.polls++
	next := &w.levels[d+1].state
	w.partners(l, root)
	for _, i := range l.partners {
		w.attempts++
		if !w.c.step(&l.state, i, next) {
			continue
		}
		// A pair is reached once, from its root; only larger
		// combinations have several growth orders to deduplicate.
		if len(next.members) > 2 {
			if _, added := w.seen.Add(next.members); !added {
				continue
			}
		}
		w.states++
		if !w.grow(d+1, root) {
			return false
		}
	}
	return true
}

// partners fills l's list, in ascending order, with the features worth
// trying against its combination: larger than the root (canonical-root
// enumeration) and — unless allPairs, which proposes every non-member —
// live and holding one of its mappings from the side its sign does not
// cover. A holder on a covered side overlaps the sign, members included,
// so a mapping covered on both sides proposes nobody.
func (w *walker) partners(l *level, root int) {
	c := w.c
	l.partners = l.partners[:0]
	if c.allPairs {
		mi := 0
		for i := root + 1; i < c.fs.Len(); i++ {
			for mi < len(l.members) && l.members[mi] < i {
				mi++
			}
			if mi == len(l.members) || l.members[mi] != i {
				l.partners = append(l.partners, i)
			}
		}
		return
	}
	lists := 0
	for e, id := range l.qmap {
		if id < 0 {
			continue
		}
		from := l.sign >> uint(c.q.Edges[e].From) & 1
		if from == l.sign>>uint(c.q.Edges[e].To)&1 {
			continue
		}
		// l covers From: ask for the holders whose internal end is To.
		slot := 2*id + int32(from)
		list := c.post[c.postOff[slot]:c.postOff[slot+1]]
		k, _ := slices.BinarySearch(list, int32(root+1))
		if k < len(list) {
			lists++
		}
		for _, i := range list[k:] {
			if c.sj.Live[i] {
				l.partners = append(l.partners, int(i))
			}
		}
	}
	if lists > 1 {
		slices.Sort(l.partners)
		l.partners = slices.Compact(l.partners)
	}
}

// step is the join condition, stated once: feature i extends s when their
// LECSigns are disjoint (Theorem 4 condition 2), they share at least one
// crossing-edge mapping, and no query edge ends up on two crossing edges
// (Definition 9) nor any query vertex on two crossing-edge endpoints (a
// check beyond Definition 9, see DESIGN.md "One join closure"). On
// success out holds the extended state. The empty combination shares
// nothing, so a step from it, which makes a root, skips the sharing test.
func (c *closure) step(s *state, i int, out *state) bool {
	if s.sign&c.fs.Sign[i] != 0 {
		return false
	}
	out.vbind = append(out.vbind[:0], s.vbind...)
	out.qmap = append(out.qmap[:0], s.qmap...)
	shared := len(s.members) == 0
	for _, id := range c.fs.ids(i) {
		if s.qmap[c.fs.tab.edges[id].qedge] == id {
			shared = true
		} else if !c.applyMapping(out.vbind, out.qmap, id) {
			return false
		}
	}
	if !shared {
		return false
	}
	out.sign = s.sign | c.fs.Sign[i]
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
	m := c.fs.tab.edges[id]
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
