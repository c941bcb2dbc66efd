// Package key builds the binary identity keys every dedup set and index
// of the query path hashes on: partial matches, LEC features, join-state
// member sets, assembled results and result rows.
//
// A key is a concatenation of fields, each appended to a caller-owned
// byte slice and finally converted with string(b) for map use. Scalar
// fields are fixed-width big-endian, so a key needs no separators, two
// keys of the same layout are equal iff every field is, and byte order
// of equal-length keys is numeric order of their fields. Variable-length
// sections (Terms, Ints, and any caller-encoded list prefixed with Len)
// carry their element count first, so adjacent sections cannot trade
// elements across their boundary.
package key

import (
	"encoding/binary"

	"gstored/internal/rdf"
)

// Int appends n as 8 bytes.
func Int(b []byte, n int) []byte { return binary.BigEndian.AppendUint64(b, uint64(n)) }

// Uint64 appends v as 8 bytes.
func Uint64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// Term appends t as 4 bytes; rdf.NoTerm is an ordinary value (zero).
func Term(b []byte, t rdf.TermID) []byte { return binary.BigEndian.AppendUint32(b, uint32(t)) }

// Len appends the element count that opens a variable-length section.
func Len(b []byte, n int) []byte { return binary.BigEndian.AppendUint32(b, uint32(n)) }

// Terms appends a length-prefixed section of term IDs.
func Terms(b []byte, ts []rdf.TermID) []byte {
	b = Len(b, len(ts))
	for _, t := range ts {
		b = Term(b, t)
	}
	return b
}

// Ints appends a length-prefixed section of ints.
func Ints(b []byte, ns []int) []byte {
	b = Len(b, len(ns))
	for _, n := range ns {
		b = Int(b, n)
	}
	return b
}
