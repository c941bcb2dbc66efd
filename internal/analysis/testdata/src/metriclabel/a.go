// Package metriclabel is golden-file input: label values must come
// from a declared fixed set.
package metriclabel

import (
	"fmt"
	"io"

	"gstored/internal/engine"
)

// outcomeNames is a declared label set: package-level, *Names suffix,
// all-literal members.
var outcomeNames = [...]string{"hit", "miss", "error"}

type labeledHistogram struct {
	label string
	count int
}

func boundedEmission(w io.Writer) {
	hs := make([]labeledHistogram, 0, len(outcomeNames))
	for i := range outcomeNames {
		hs = append(hs, labeledHistogram{label: outcomeNames[i]})
	}
	for _, name := range outcomeNames {
		fmt.Fprintf(w, "queries_total{outcome=%q} %d\n", name, 1)
	}
	_ = labeledHistogram{label: "hit"}                   // literal member of the set
	fmt.Fprintf(w, "d_bucket{le=%q} %d\n", "0.5", 1)     // le is bounded by the bucket layout
	fmt.Fprintf(w, "d_bucket{%s=%q} 1\n", "outcome", "") // dynamic label *name*: the set is the histogram's own
	_ = hs
}

func unboundedEmission(w io.Writer, dyn string) {
	_ = labeledHistogram{label: dyn}                      // want `metric label value dyn`
	fmt.Fprintf(w, "queries_total{outcome=%q} 1\n", dyn)  // want `metric label outcome value dyn`
	_ = labeledHistogram{label: "unknown"}                // want `not a member of any declared label set`
	fmt.Fprintf(w, "queries_total{outcome=%q} 1\n", "xx") // want `not a member of any declared label set`
}

// importedSet draws labels from a set another package declares: an
// imported package-level <X>Names string array is as fixed as a local
// one, and re-declaring it here would be a second stage list.
func importedSet(w io.Writer) {
	for i, name := range engine.StageNames {
		fmt.Fprintf(w, "stage_seconds_total{stage=%q} %d\n", name, i)
	}
	_ = labeledHistogram{label: engine.StageNames[engine.StageLEC]}
	_ = labeledHistogram{label: engine.StageLEC.String()} // want `metric label value engine.StageLEC.String\(\)`
}
