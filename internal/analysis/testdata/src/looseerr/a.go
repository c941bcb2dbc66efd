// Package looseerr is golden-file input: no silently discarded errors.
package looseerr

import (
	"bytes"
	"fmt"
	"os"
	"strings"
)

func drops(f *os.File) {
	f.Close() // want `error return of \(\*os.File\)\.Close is silently discarded`
}

func dropsTwoResults(f *os.File) {
	f.WriteString("x") // want `error return of \(\*os.File\)\.WriteString is silently discarded`
}

func goDrop(f *os.File) {
	go f.Sync() // want `error return of \(\*os.File\)\.Sync is silently discarded`
}

// deferClose is exempt: best-effort cleanup by convention.
func deferClose(f *os.File) {
	defer f.Close()
}

// explicitDrop is the sanctioned idiom: the discard is visible.
func explicitDrop(f *os.File) {
	_ = f.Close()
}

// exempted callees: fmt printers, strings.Builder, bytes.Buffer.
func exempted(sb *strings.Builder, buf *bytes.Buffer) {
	fmt.Println("x")
	fmt.Fprintf(sb, "x%d", 1)
	sb.WriteString("x")
	buf.WriteByte('x')
}

// handled errors are obviously fine.
func handled(f *os.File) error {
	if err := f.Close(); err != nil {
		return err
	}
	return nil
}
