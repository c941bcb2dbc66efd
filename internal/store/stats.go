package store

import (
	"maps"

	"gstored/internal/rdf"
)

// Stats is the per-predicate cardinality table. New computes it from the
// triples (buildStats); Apply moves it with each delta (apply), at a
// cost proportional to the delta, and the result equals buildStats of
// the post-delta store. Query compilation reads it to order edge
// expansion by estimated selectivity (bound/small side first); it
// describes the data itself, so its counts stay exact across updates.
type Stats struct {
	preds   map[rdf.TermID]PredStat
	triples int // distinct triples across all predicates
}

// PredStat summarizes the cardinality of one predicate.
type PredStat struct {
	Count    int // distinct triples carrying the predicate
	Subjects int // distinct subjects among them
	Objects  int // distinct objects among them
}

// Pred returns the cardinality summary of predicate p.
func (s *Stats) Pred(p rdf.TermID) (PredStat, bool) {
	if s == nil {
		return PredStat{}, false
	}
	ps, ok := s.preds[p]
	return ps, ok
}

// Triples reports the number of distinct triples the table covers.
func (s *Stats) Triples() int {
	if s == nil {
		return 0
	}
	return s.triples
}

// Stats returns the store's cardinality table. It is immutable, like
// the store itself.
func (st *Store) Stats() *Stats { return st.stats }

// predStatOf summarizes one deduplicated byPred list, which is sorted
// by (S, P, O) — distinct subjects fall out of the run structure;
// objects need a set. It walks the whole list, so only buildStats uses
// it.
func predStatOf(ts []rdf.Triple) PredStat {
	ps := PredStat{Count: len(ts)}
	objs := make(map[rdf.TermID]struct{}, len(ts))
	for i, t := range ts {
		if i == 0 || t.S != ts[i-1].S {
			ps.Subjects++
		}
		objs[t.O] = struct{}{}
	}
	ps.Objects = len(objs)
	return ps
}

// buildStats computes the table from scratch over deduplicated byPred
// lists.
func buildStats(byPred map[rdf.TermID][]rdf.Triple) *Stats {
	s := &Stats{preds: make(map[rdf.TermID]PredStat, len(byPred))}
	for p, ts := range byPred {
		ps := predStatOf(ts)
		s.preds[p] = ps
		s.triples += ps.Count
	}
	return s
}

// apply returns the table after the delta that took st to next, moving
// each count with the delta instead of re-walking any predicate's list:
// Count is read off next's byPred, and a subject (object) of a delta
// triple moves Subjects (Objects) of its predicate by whether it has an
// edge so labelled in next minus whether it had one in st. These are
// presence tests, so duplicate instances, absent deletes and a triple on
// both sides of the delta need no case of their own. A predicate whose
// Count reaches 0 leaves the table.
func (s *Stats) apply(st, next *Store, deleted, inserted []rdf.Triple) *Stats {
	var preds map[rdf.TermID]PredStat
	if s != nil {
		preds = s.preds
	}
	out := &Stats{preds: make(map[rdf.TermID]PredStat, len(preds)+1), triples: s.Triples()}
	maps.Copy(out.preds, preds)
	type end struct{ p, v rdf.TermID }
	subjects := make(map[end]bool, len(deleted)+len(inserted))
	objects := make(map[end]bool, len(deleted)+len(inserted))
	for _, batch := range [2][]rdf.Triple{deleted, inserted} {
		for _, t := range batch {
			subjects[end{t.P, t.S}] = true
			objects[end{t.P, t.O}] = true
		}
	}
	for e := range subjects {
		ps := out.preds[e.p]
		n := next.byPred[e.p].Len() // a predicate's later visits move Count by 0
		out.triples += n - ps.Count
		ps.Count = n
		ps.Subjects += min(next.Degree(e.v, true, e.p), 1) - min(st.Degree(e.v, true, e.p), 1)
		out.preds[e.p] = ps
	}
	for e := range objects {
		ps := out.preds[e.p]
		ps.Objects += min(next.Degree(e.v, false, e.p), 1) - min(st.Degree(e.v, false, e.p), 1)
		out.preds[e.p] = ps
	}
	for e := range subjects {
		if out.preds[e.p].Count == 0 {
			delete(out.preds, e.p)
		}
	}
	return out
}
