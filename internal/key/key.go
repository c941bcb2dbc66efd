// Package key holds the identities the query path deduplicates and
// indexes on. Set is an exact hashed set of integer tuples — interned
// crossing-edge mappings, LEC features as (fragment, mapping ids), join
// member sets and assembled rows — that hands out dense ids and allocates
// no key per tuple. The byte keys below identify partial matches and
// result rows where a string must stand for them.
//
// A byte key is a concatenation of fields, each appended to a caller-owned
// byte slice and finally converted with string(b) for map use. Scalar
// fields are fixed-width big-endian, so a key needs no separators, two
// keys of the same layout are equal iff every field is, and byte order
// of equal-length keys is numeric order of their fields. Variable-length
// sections (Terms, and any caller-encoded list prefixed with Len)
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
