// Package varint holds the integer primitives the module's two
// hand-rolled binary encodings share: the stage-0 candidate-set codec
// (internal/candidates) and the RPC frame codec (internal/remote).
//
// Every integer is a uvarint in its shortest form — signed ones zig-zag
// coded first — so a value has exactly one encoding and whatever decodes
// re-encodes to the same bytes. A variable-length section carries its
// element count first. Decoding goes through a Reader, which treats its
// input as hostile: an overlong or truncated varint is an error, a count
// is checked against the bytes that are left before anything is
// allocated for it, and Done rejects trailing bytes.
package varint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Append appends x as a uvarint.
func Append(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// AppendInt appends a non-negative int as a uvarint. A negative n — a
// caller's bug, never input — encodes to a value Reader.Int rejects.
func AppendInt(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

// AppendSigned appends x zig-zag coded, so values near zero of either
// sign stay short.
func AppendSigned(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

// Len is the encoded length of x.
func Len(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

var (
	errTruncated = errors.New("varint: truncated input")
	errOverlong  = errors.New("varint: integer not in its shortest form")
)

// Reader cuts fields off the front of a byte slice. Its first failure
// sticks: every later cut returns zero and leaves nothing to read, so a
// decoder runs straight through and checks Err (or Done) once — counts
// come back zero after a failure, and loops over them do not run.
type Reader struct {
	data []byte
	err  error
}

// NewReader reads data, which it never modifies or retains past the
// caller's use of Bytes results.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Len is the number of bytes left.
func (r *Reader) Len() int { return len(r.data) }

// Err is the first failure, nil while every cut succeeded.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's failure unless one is already set.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.data = nil
}

// Done is Err, or an error when input is left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.data) != 0 {
		r.Fail(fmt.Errorf("varint: %d trailing bytes", len(r.data)))
	}
	return r.err
}

// Uvarint cuts one shortest-form uvarint.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.data)
	switch {
	case n == 0:
		r.Fail(errTruncated)
		return 0
	case n < 0 || n != Len(x):
		r.Fail(errOverlong)
		return 0
	}
	r.data = r.data[n:]
	return x
}

// Upto cuts a uvarint that may not exceed limit.
func (r *Reader) Upto(limit uint64) uint64 {
	x := r.Uvarint()
	if x > limit {
		r.Fail(fmt.Errorf("varint: %d exceeds the field's range of %d", x, limit))
		return 0
	}
	return x
}

// Int cuts a non-negative int.
func (r *Reader) Int() int { return int(r.Upto(maxInt)) }

const maxInt = 1<<(bits.UintSize-1) - 1

// Signed cuts one zig-zag coded integer.
func (r *Reader) Signed() int64 {
	ux := r.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Count cuts an element count whose elements take at least minSize bytes
// each and fails when the input left cannot hold that many — the check
// that lets a decoder allocate from a count it read off a socket.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.data)/minSize) {
		r.Fail(fmt.Errorf("varint: %d elements of at least %d bytes claimed in %d bytes", n, minSize, len(r.data)))
		return 0
	}
	return int(n)
}

// Bytes cuts n raw bytes. The result aliases the input.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.data) {
		r.Fail(errTruncated)
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// Byte cuts one raw byte.
func (r *Reader) Byte() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// Uint64 cuts a fixed-width big-endian 64-bit value, the form of fields
// whose size must not depend on their value.
func (r *Reader) Uint64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// AppendUint64 appends v fixed-width, big-endian.
func AppendUint64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
