package lec

import (
	"slices"

	"gstored/internal/key"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Item is what the join closure knows about one thing it combines — a LEC
// feature or a single partial match: its LECSign and its crossing-edge
// mappings (the function g of Definition 8).
type Item struct {
	Sign     uint64
	Mappings []partial.CrossEdge
}

// Closure is the canonical-root walk behind Algorithm 2 (feature pruning),
// Algorithm 3 (LEC assembly) and the baseline join of [18]: every
// connected, sign-disjoint, mapping-consistent combination of Items is
// grown depth-first from its minimum-index member, visited once (a seen
// set keyed by the sorted member set), and reported when its signs cover
// the query (Theorem 4: a full cover matches every edge). The walk owns
// the join condition of Definition 9; a caller adds only a payload P that
// rides each state.
type Closure[P any] struct {
	Q     *query.Graph
	Items []Item
	// AllPairs proposes every larger-index item as a partner instead of
	// consulting the crossing-edge index: the same closure, with sharing
	// re-discovered by the join step at the price of the attempts the
	// index avoids. It is gStoreD-Basic, and nothing else differs.
	AllPairs bool
	// MaxStates, when positive, ends the walk (Overflowed) once more
	// states than this have been materialized.
	MaxStates int
	// Cancel, when non-nil, is polled every 256 expansions; returning
	// true ends the walk.
	Cancel func() bool
	// Root and Join build the payload of a one-item state and of a state
	// extended by item i; Join may veto the extension and must not
	// modify p. Both may be nil when P carries nothing.
	Root func(i int) P
	Join func(p P, i int) (P, bool)
	// Complete receives each combination whose signs cover the query;
	// members is only valid during the call. Returning false ends the
	// walk.
	Complete func(members []int, p P) bool

	Attempts   int  // join steps tried
	States     int  // distinct combinations materialized
	Overflowed bool // MaxStates was exceeded

	byMapping map[partial.CrossEdge][]int // crossing edge → items mapping it; nil when AllPairs
	// stamp[i] == gen marks item i as a member of the state being
	// expanded or as already proposed to it.
	stamp []int
	gen   int
	buf   []int // partners scratch
}

// state is one combination: the union sign, the sorted member indices,
// the crossing-edge endpoint bound to each query vertex (vbind) and the
// crossing edge chosen for each query edge (qmap, S == rdf.NoTerm when
// none).
type state[P any] struct {
	sign    uint64
	members []int
	vbind   []rdf.TermID
	qmap    []partial.CrossEdge
	payload P
}

// Run walks the closure, reporting whether it ran to the end (false
// after cancellation, overflow or a false return from Complete).
func (c *Closure[P]) Run() bool {
	full := fullSign(len(c.Q.Vertices))
	if !c.AllPairs {
		c.byMapping = make(map[partial.CrossEdge][]int)
		for i, it := range c.Items {
			for _, m := range it.Mappings {
				c.byMapping[m] = append(c.byMapping[m], i)
			}
		}
	}
	c.stamp = make([]int, len(c.Items))
	var frontier []state[P]
	var next state[P] // scratch: cloned only when a state joins the frontier
	var polls uint
	var kbuf [128]byte // member-set key scratch

	for root := range c.Items {
		if !c.start(root, &next) {
			continue
		}
		if next.sign == full {
			// A single item can never be complete (it has a crossing
			// edge, hence an extended endpoint vertex), but guard anyway.
			if !c.Complete(next.members, next.payload) {
				return false
			}
			continue
		}
		frontier = append(frontier[:0], next.clone())
		seen := map[string]bool{}
		for len(frontier) > 0 {
			if c.Cancel != nil {
				if polls&0xff == 0 && c.Cancel() {
					return false
				}
				polls++
			}
			s := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, i := range c.partners(&s, root) {
				c.Attempts++
				if !c.step(&s, i, &next) {
					continue
				}
				mk := key.Ints(kbuf[:0], next.members)
				if seen[string(mk)] { // lookup by converted bytes does not allocate
					continue
				}
				if c.Join != nil {
					var ok bool
					if next.payload, ok = c.Join(s.payload, i); !ok {
						continue
					}
				}
				seen[string(mk)] = true
				c.States++
				if c.MaxStates > 0 && c.States > c.MaxStates {
					c.Overflowed = true
					return false
				}
				if next.sign == full {
					// Nothing can extend a full cover: any further item
					// overlaps its sign.
					if !c.Complete(next.members, next.payload) {
						return false
					}
					continue
				}
				frontier = append(frontier, next.clone())
			}
		}
	}
	return true
}

// partners lists, in ascending order, the items worth trying against s:
// larger than the root (canonical-root enumeration), not already members
// and — unless AllPairs — sharing a crossing-edge mapping with s
// (connected growth). The result is valid until the next call.
func (c *Closure[P]) partners(s *state[P], root int) []int {
	c.gen++
	for _, m := range s.members {
		c.stamp[m] = c.gen
	}
	out := c.buf[:0]
	if c.AllPairs {
		for i := root + 1; i < len(c.Items); i++ {
			if c.stamp[i] != c.gen {
				out = append(out, i)
			}
		}
	} else {
		for _, m := range s.qmap {
			if m.S == rdf.NoTerm {
				continue
			}
			for _, i := range c.byMapping[m] {
				if i > root && c.stamp[i] != c.gen {
					c.stamp[i] = c.gen
					out = append(out, i)
				}
			}
		}
		slices.Sort(out)
	}
	c.buf = out
	return out
}

// start fills out with the one-item state of root, reporting false when
// the item's own mappings contradict each other.
func (c *Closure[P]) start(root int, out *state[P]) bool {
	out.sign = c.Items[root].Sign
	out.members = append(out.members[:0], root)
	out.vbind = append(out.vbind[:0], make([]rdf.TermID, len(c.Q.Vertices))...)
	out.qmap = append(out.qmap[:0], make([]partial.CrossEdge, len(c.Q.Edges))...)
	for _, m := range c.Items[root].Mappings {
		if !applyMapping(out.vbind, out.qmap, c.Q, m) {
			return false
		}
	}
	if c.Root != nil {
		out.payload = c.Root(root)
	}
	return true
}

// step is the join condition, stated once: item i extends s when their
// LECSigns are disjoint (Theorem 4 condition 2), they share at least one
// crossing-edge mapping, and no query edge ends up on two crossing edges
// (Definition 9) nor any query vertex on two crossing-edge endpoints (a
// check beyond Definition 9, see DESIGN.md "One join closure"). On
// success out holds the extended state, payload aside.
func (c *Closure[P]) step(s *state[P], i int, out *state[P]) bool {
	it := &c.Items[i]
	if s.sign&it.Sign != 0 {
		return false
	}
	out.vbind = append(out.vbind[:0], s.vbind...)
	out.qmap = append(out.qmap[:0], s.qmap...)
	shared := false
	for _, m := range it.Mappings {
		if s.qmap[m.QEdge] == m {
			shared = true
		} else if !applyMapping(out.vbind, out.qmap, c.Q, m) {
			return false
		}
	}
	if !shared {
		return false
	}
	out.sign = s.sign | it.Sign
	at, _ := slices.BinarySearch(s.members, i)
	out.members = slices.Insert(append(out.members[:0], s.members...), at, i)
	return true
}

func (s state[P]) clone() state[P] {
	s.members = slices.Clone(s.members)
	s.vbind = slices.Clone(s.vbind)
	s.qmap = slices.Clone(s.qmap)
	return s
}

func fullSign(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// applyMapping folds one crossing-edge mapping into the per-vertex and
// per-edge binding tables, reporting consistency.
func applyMapping(vbind []rdf.TermID, qmap []partial.CrossEdge, q *query.Graph, m partial.CrossEdge) bool {
	e := q.Edges[m.QEdge]
	if cur := qmap[m.QEdge]; cur.S != rdf.NoTerm {
		return cur == m // Definition 9 condition 3
	}
	if b := vbind[e.From]; b != rdf.NoTerm && b != m.S {
		return false
	}
	if b := vbind[e.To]; b != rdf.NoTerm && b != m.O {
		return false
	}
	qmap[m.QEdge] = m
	vbind[e.From] = m.S
	vbind[e.To] = m.O
	return true
}
