package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
)

// exactShipment names the workloads whose shipped_bytes_per_pass is the
// §IX model evaluated over identical inputs by one client, and therefore
// must repeat byte for byte from run to run. (wired counts gob varints
// of durations and star_stream's LIMIT query stops at a racy point; both
// are merely held to the bound.)
var exactShipment = map[string]bool{"crossing": true, "serve_mix": true}

// runAA is the benchmark's own noise check: two interleaved sets of N
// full runs of the same tree with the same seed. It fails when any
// end-to-end median differs between the sets by more than half its bound,
// or when a counter that must repeat exactly does not. The table it
// prints is the README's A/A evidence.
func (h *harness) runAA(ctx context.Context, out io.Writer) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failed := false
	for i := 0; i < h.opts.aa; i++ {
		for set := 0; set < 2; set++ {
			for _, s := range specs {
				fmt.Fprintf(os.Stderr, "aa: run %d/%d set %c %s\n", i+1, h.opts.aa, 'A'+set, s.Name)
				rec, err := h.runWorkload(ctx, s, modeE2E)
				if err != nil {
					if rec != nil {
						rec.print(os.Stderr)
					}
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.Name, err)
					return 1
				}
				if rec.Failed > 0 {
					rec.print(os.Stderr)
					failed = true
				}
				for name, v := range rec.EndToEnd {
					k := key{s.Name, name}
					sets[set][k] = append(sets[set][k], v.Value)
				}
			}
		}
	}

	fmt.Fprintf(out, "| workload | metric | unit | median A | median B | difference | half bound | |\n|---|---|---|---|---|---|---|---|\n")
	for _, s := range specs {
		for _, d := range endToEndDefs {
			k := key{s.Name, d.Name}
			a, b := median(sets[0][k]), median(sets[1][k])
			diff := ratio(math.Abs(a-b), math.Min(a, b))
			verdict := "ok"
			if diff > d.Bound/2 {
				verdict, failed = "FAIL", true
			}
			if d.Name == "shipped_bytes_per_pass" && exactShipment[s.Name] {
				all := append(append([]float64{}, sets[0][k]...), sets[1][k]...)
				for _, v := range all {
					if v != all[0] {
						verdict, failed = "FAIL (not byte-identical)", true
					}
				}
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.4f | %.4f | %.2f%% | %.2f%% | %s |\n",
				s.Name, d.Name, d.Unit, a, b, 100*diff, 100*d.Bound/2, verdict)
		}
	}
	if failed {
		fmt.Fprintln(out, "A/A check FAILED")
		return 1
	}
	fmt.Fprintln(out, "A/A check passed")
	return 0
}
