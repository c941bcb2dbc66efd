package varint

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// TestRoundTrip: every appender is inverted by its cut, the encoding is
// as long as Len says, and the reader ends exactly at the end.
func TestRoundTrip(t *testing.T) {
	check := func(u uint64, s int64, n uint32) bool {
		b := Append(nil, u)
		if len(b) != Len(u) {
			return false
		}
		b = AppendSigned(b, s)
		b = AppendInt(b, int(n))
		b = AppendUint64(b, u)
		r := NewReader(b)
		return r.Uvarint() == u && r.Signed() == s && r.Int() == int(n) && r.Uint64() == u && r.Done() == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	for _, edge := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, math.MaxUint32, math.MaxUint64} {
		if !check(edge, int64(edge), uint32(edge)) || !check(edge, -int64(edge>>1), 0) {
			t.Errorf("edge value %d does not round-trip", edge)
		}
	}
}

// TestSignedStaysShort: zig-zag keeps small magnitudes of either sign in
// one byte, which is what delta-coded ID lists rely on.
func TestSignedStaysShort(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 63, -64} {
		if n := len(AppendSigned(nil, x)); n != 1 {
			t.Errorf("%d takes %d bytes", x, n)
		}
	}
	if n := len(AppendSigned(nil, 64)); n != 2 {
		t.Errorf("64 takes %d bytes, want 2", n)
	}
}

// TestReaderRejects: each input is wrong in one way the reader must
// notice, and the failure sticks.
func TestReaderRejects(t *testing.T) {
	for name, c := range map[string]struct {
		data []byte
		cut  func(r *Reader)
	}{
		"empty":              {nil, func(r *Reader) { r.Uvarint() }},
		"truncated varint":   {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"overlong zero":      {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"overlong value":     {[]byte{0x85, 0x00}, func(r *Reader) { r.Uvarint() }},
		"past 64 bits":       {bytes.Repeat([]byte{0xff}, 10), func(r *Reader) { r.Uvarint() }},
		"past the bound":     {Append(nil, 1<<32), func(r *Reader) { r.Upto(math.MaxUint32) }},
		"negative as an int": {AppendInt(nil, -1), func(r *Reader) { r.Int() }},
		"count past input":   {[]byte{3, 0, 0}, func(r *Reader) { r.Count(1) }},
		"count of wide":      {[]byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		"huge count":         {Append(nil, math.MaxUint64), func(r *Reader) { r.Count(1) }},
		"short bytes":        {[]byte{1, 2}, func(r *Reader) { r.Bytes(3) }},
		"short fixed":        {[]byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.Uint64() }},
		"no byte":            {nil, func(r *Reader) { r.Byte() }},
		"trailing":           {[]byte{1, 2}, func(r *Reader) { r.Uvarint() }},
	} {
		r := NewReader(c.data)
		c.cut(r)
		first := r.Done()
		if first == nil {
			t.Errorf("%s: %x accepted", name, c.data)
			continue
		}
		if r.Len() != 0 || r.Uvarint() != 0 || r.Count(1) != 0 || r.Bytes(1) != nil || r.Err() != first {
			t.Errorf("%s: the failure did not stick", name)
		}
	}
}

// TestCountAdmitsWhatFits: the bound is the bytes left after the count
// itself, divided by the element size.
func TestCountAdmitsWhatFits(t *testing.T) {
	r := NewReader([]byte{2, 0, 0, 0, 0})
	if n := r.Count(2); n != 2 || r.Err() != nil {
		t.Fatalf("Count = %d, %v; want 2 elements of 2 bytes in 4", n, r.Err())
	}
	if b := r.Bytes(4); len(b) != 4 || cap(b) != 4 {
		t.Errorf("Bytes = len %d cap %d, want a capped 4", len(b), cap(b))
	}
	if err := r.Done(); err != nil {
		t.Error(err)
	}
}
