package analysis

// TestModuleClean is the lint entry point (`make lint` runs it, and it
// is part of tier-1): every package under the repository root — the
// root module and bench/, whose README relies on this walk — loaded by
// the one driver, must produce zero diagnostics from the whole suite.
// Every sanctioned pattern in the tree (explicit `_ =` drops, Repartition
// and Update's swapMu prologue, the declared label sets, threaded
// generation snapshots) is thereby pinned as accepted.

import (
	"path/filepath"
	"testing"
)

func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, fset, err := LoadAll(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	for _, want := range []string{"gstored/bench", "gstored/cmd/gstored"} {
		if !loaded[want] {
			t.Fatalf("%s was not loaded; the walk lost part of the tree", want)
		}
	}
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(fset, pkg.Files, pkg.Types, pkg.Info, All())
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %v: %s [%s]", pkg.Path, fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
}
