package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gstored"
)

// expect is the oracle's answer to one query in one data state.
type expect struct {
	Rows rowSet
	// Members holds every row hash; kept only for queries issued with a
	// LIMIT, whose answer is any subset of the right size.
	Members map[uint64]struct{}
}

// oracle maps a query text to its expected answer in data states 0 (base)
// and 1 (delta inserted).
type oracle map[string]*[2]expect

// buildOracle evaluates every distinct oracle query of the plan through
// the library at EvalWorkers 1 — the sequential configuration every other
// one is pinned to — in both data states. Queries are independent, so
// they are spread over the cores; each one still runs at width 1.
func buildOracle(ctx context.Context, p *plan) (oracle, error) {
	db, err := gstored.Open(p.Graph, gstored.Config{Sites: numSites, Strategy: "hash", Mode: gstored.ModeFull, EvalWorkers: 1})
	if err != nil {
		return nil, fmt.Errorf("oracle: open: %w", err)
	}
	// Only the (query, state) pairs some pass actually issues are
	// evaluated: most of a Zipf tail is drawn once, in one state.
	or := oracle{}
	var texts [2][]string
	needed := map[string][2]bool{}
	needMembers := map[string]bool{}
	for i, pass := range p.Passes {
		state := stateOfPass(i)
		for _, o := range pass {
			if _, ok := or[o.Oracle]; !ok {
				or[o.Oracle] = &[2]expect{}
			}
			if n := needed[o.Oracle]; !n[state] {
				n[state] = true
				needed[o.Oracle] = n
				texts[state] = append(texts[state], o.Oracle)
			}
			if o.Limit > 0 {
				needMembers[o.Oracle] = true
			}
		}
	}
	if err := evalAll(ctx, db, texts[0], needMembers, or, 0); err != nil {
		return nil, err
	}
	if err := chooseDelta(ctx, db, p); err != nil {
		return nil, err
	}
	if err := evalAll(ctx, db, texts[1], needMembers, or, 1); err != nil {
		return nil, err
	}
	// Leave the graph as generated: the traced run and the dataset file
	// both describe the base state.
	if _, err := db.Update(ctx, p.Delete); err != nil {
		return nil, fmt.Errorf("oracle: delete: %w", err)
	}
	return or, nil
}

// chooseDelta walks the plan's delta candidates until one touches exactly
// deltaFragments fragments — judged by the library's own UpdateStats, so
// no knowledge of the partitioner leaks into the benchmark — and leaves
// it inserted.
func chooseDelta(ctx context.Context, db *gstored.DB, p *plan) error {
	const maxTries = 200
	for k := 0; k < maxTries; k++ {
		p.setDelta(k)
		st, err := db.Update(ctx, p.Insert)
		if err != nil {
			return fmt.Errorf("oracle: insert: %w", err)
		}
		if st.Inserted != updateTriples {
			return fmt.Errorf("oracle: insert added %d triples, want %d (delta collides with the dataset)", st.Inserted, updateTriples)
		}
		if st.RebuiltFragments == deltaFragments {
			return nil
		}
		if _, err := db.Update(ctx, p.Delete); err != nil {
			return fmt.Errorf("oracle: delete: %w", err)
		}
	}
	return fmt.Errorf("oracle: no delta candidate of %d touches exactly %d fragments", maxTries, deltaFragments)
}

func evalAll(ctx context.Context, db *gstored.DB, texts []string, needMembers map[string]bool, or oracle, state int) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(texts) || ctx.Err() != nil {
					return
				}
				e, err := evalOne(ctx, db, texts[i], needMembers[texts[i]])
				if err != nil {
					errs[w] = fmt.Errorf("oracle: %w\nquery: %s", err, texts[i])
					return
				}
				// Distinct queries own distinct entries; the map itself is
				// not written after buildOracle filled its keys.
				or[texts[i]][state] = e
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

func evalOne(ctx context.Context, db *gstored.DB, text string, members bool) (expect, error) {
	q, err := db.ParseReadOnly(text)
	if err != nil {
		return expect{}, err
	}
	res, err := db.QueryGraphContext(ctx, q)
	if err != nil {
		return expect{}, err
	}
	var e expect
	if members {
		e.Members = make(map[uint64]struct{}, res.Len())
	}
	dict := db.Graph.Dict
	res.EachProjected(func(row gstored.Row) bool {
		h := uint64(fnvOffset)
		for j, id := range row {
			cell := ""
			if id != gstored.NoTerm {
				cell = dict.MustDecode(id).String()
			}
			h = addCell(h, j, cell)
		}
		e.Rows.add(h)
		if members {
			e.Members[h] = struct{}{}
		}
		return true
	})
	return e, nil
}
