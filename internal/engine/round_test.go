package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"gstored/internal/cluster"
	"gstored/internal/pool"
	"gstored/internal/query"
)

// TestRoundBooksSitesInOrder: at width 1, round calls the sites strictly
// in ID order — the -eval-workers=1 oracle — and books every call exactly
// once, failed or not; it returns the first failure in site order,
// outranked by the context's own error.
func TestRoundBooksSitesInOrder(t *testing.T) {
	_, e := paperEngine(t)
	errs := []error{nil, errors.New("site 1"), errors.New("site 2")}
	for _, canceled := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		if canceled {
			cancel()
		}
		stats := Stats{Fragments: make([]FragmentStats, len(e.sites))}
		var order []int
		err := e.round(ctx, StagePartial, pool.New(1), &stats, func(i int, s cluster.Site) (cluster.Meter, error) {
			order = append(order, s.ID())
			return cluster.Meter{Wire: int64(10 * (i + 1)), WireMessages: 2, Tasks: 1, Busy: time.Millisecond}, errs[i]
		})
		cancel()
		want := errs[1]
		if canceled {
			want = context.Canceled
		}
		if !errors.Is(err, want) {
			t.Errorf("canceled=%v: err = %v, want %v", canceled, err, want)
		}
		if !slices.Equal(order, []int{0, 1, 2}) {
			t.Errorf("canceled=%v: sites called in order %v, want [0 1 2]", canceled, order)
		}
		for i, f := range stats.Fragments {
			if f.WireBytes != int64(10*(i+1)) || f.Tasks != 1 || f.Busy != time.Millisecond {
				t.Errorf("canceled=%v: site %d booked %+v, want its one call", canceled, i, f)
			}
		}
		if st := stats.Stages[StagePartial]; st.Shipment != 60 || stats.TotalShipment != 60 || stats.Messages != 6 {
			t.Errorf("canceled=%v: stage shipment %d, total %d bytes in %d messages; want 60, 60, 6", canceled, st.Shipment, stats.TotalShipment, stats.Messages)
		}
	}
}

// TestStreamStoppedEarlyBooksEmitted: a stream its LIMIT stops books the
// matches it emitted, on the star path and through partial evaluation
// and assembly, at every width, with the sites in process and on two
// loopback workers — where the canceled call ends without a final frame.
func TestStreamStoppedEarlyBooksEmitted(t *testing.T) {
	env := newEquivEnv(t)
	for _, site := range []struct {
		name string
		eng  *Engine
	}{{"in-process", env.eng}, {"wired", newRemoteEngine(t, env)}} {
		for _, shape := range []string{"star", "path", "tree", "chain"} {
			for _, limit := range []int{1, 3} {
				q := env.shape(t, shape, func(b *query.Builder) *query.Builder { return b.Limit(limit) })
				for _, width := range []int{1, 4} {
					at := fmt.Sprintf("%s %s LIMIT %d width %d", site.name, shape, limit, width)
					res, err := site.eng.ExecuteStream(context.Background(), q, Config{Mode: Full, EvalWorkers: width}, func(Row) bool { return true })
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					s := res.Stats
					if s.NumMatches != limit {
						t.Fatalf("%s: %d rows", at, s.NumMatches)
					}
					if s.NumLocalMatches+s.NumCrossingMatches < s.NumMatches {
						t.Errorf("%s: %d local + %d crossing matches book %d rows",
							at, s.NumLocalMatches, s.NumCrossingMatches, s.NumMatches)
					}
					var local int
					for _, f := range s.Fragments {
						local += f.LocalMatches
					}
					if local != s.NumLocalMatches {
						t.Errorf("%s: fragments book %d local matches, the total %d", at, local, s.NumLocalMatches)
					}
				}
			}
		}
	}
}
