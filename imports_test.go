package gstored

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestModuleDoesNotImportGob pins PR 23's subtraction: the transport has
// one hand-rolled codec (internal/remote/codec.go), and reflection-driven
// encoding/gob is imported by no file of this module, tests included.
// Nested modules (bench/, the measuring instrument, gob-encodes payloads
// for its own size metric) are not this module's files.
func TestModuleDoesNotImportGob(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return nil // analyzer fixtures need not parse; a file that does not cannot import
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/gob" {
				t.Errorf("%s imports encoding/gob", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
