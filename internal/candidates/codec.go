package candidates

import (
	"encoding/binary"
	"fmt"
	"math"

	"gstored/internal/rdf"
	"gstored/internal/varint"
)

// The encoding of a SiteVectors, the only one stage 0 has: a uvarint
// holding twice the slot count, plus one in a site's report (which
// carries κ; a union does not), then per slot one uvarint header h and
// its body, and in a report after each set its κ as a uvarint.
//
//	h = 0      no set (a constant query vertex, or a union not broadcast)
//	h = 1      bits: the word count as a uvarint, then the words, little-endian
//	h = n + 2  list of n IDs: the first as a uvarint, each next as the uvarint
//	           difference from its predecessor
//
// so an empty set is the one byte 2. Every uvarint is in its shortest
// form (package varint), which makes the encoding of a value unique: what
// decodes re-encodes to the same bytes.
const (
	slotNone = 0
	slotBits = 1
	slotList = 2
)

// listSize is the encoded length of a list slot holding ids.
func listSize(ids []rdf.TermID) int {
	n := varint.Len(uint64(len(ids)) + slotList)
	var prev rdf.TermID
	for _, u := range ids {
		n += varint.Len(uint64(u - prev))
		prev = u
	}
	return n
}

// vectorSize is the encoded length of a bits slot of that many words.
func vectorSize(words int) int { return 1 + varint.Len(uint64(words)) + 8*words }

// head is the encoding's first uvarint.
func (s *SiteVectors) head() uint64 {
	h := uint64(len(s.Sets)) << 1
	if s.Rejects != nil {
		h |= 1
	}
	return h
}

// ShipmentBytes is the wire size of the site's sets: the length of their
// encoding.
func (s *SiteVectors) ShipmentBytes() int {
	n := varint.Len(s.head())
	for i, set := range s.Sets {
		switch {
		case set == nil:
			n++
		case s.Rejects != nil:
			n += set.size + varint.Len(uint64(s.Rejects[i]))
		default:
			n += set.size
		}
	}
	return n
}

// AppendBinary appends the encoding above to b: the bytes the
// coordinator↔worker frames carry and ShipmentBytes prices.
func (s *SiteVectors) AppendBinary(b []byte) []byte {
	b = varint.Append(b, s.head())
	for i, set := range s.Sets {
		switch {
		case set == nil:
			b = append(b, slotNone)
			continue
		case set.vec != nil:
			b = append(b, slotBits)
			b = varint.AppendInt(b, len(set.vec.bits))
			for _, w := range set.vec.bits {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
		default:
			b = varint.Append(b, uint64(len(set.ids))+slotList)
			var prev rdf.TermID
			for _, u := range set.ids {
				b = varint.Append(b, uint64(u-prev))
				prev = u
			}
		}
		if s.Rejects != nil {
			b = varint.AppendInt(b, s.Rejects[i])
		}
	}
	return b
}

// Decode is the inverse of AppendBinary over a whole payload. The payload
// comes off a socket and is not trusted: every count is checked against
// the bytes that are left before anything is allocated for it (a slot, an
// ID and a word each take at least one), IDs must increase strictly
// within the TermID range, a κ may not pass 2³² − 1, and nothing may
// follow the last slot.
func Decode(data []byte) (*SiteVectors, error) {
	r := varint.NewReader(data)
	head := r.Uvarint()
	if head>>1 > uint64(r.Len()) {
		r.Fail(fmt.Errorf("candidates: %d slots claimed in %d bytes", head>>1, r.Len()))
		head = 0
	}
	sv := &SiteVectors{Sets: make([]*Set, head>>1)}
	if head&1 != 0 {
		sv.Rejects = make([]int, len(sv.Sets))
	}
	sets := sv.Sets
	for i := range sets {
		start := r.Len()
		switch h := r.Uvarint(); {
		case h == slotNone:
			continue
		case h == slotBits:
			words := r.Count(8)
			if words == 0 {
				r.Fail(fmt.Errorf("candidates: bit vector of no words"))
			}
			vec := &BitVector{bits: make([]uint64, words), n: words * 64}
			raw := r.Bytes(8 * words)
			for j := range vec.bits {
				vec.bits[j] = binary.LittleEndian.Uint64(raw[8*j:])
			}
			sets[i] = &Set{vec: vec}
		case h-slotList > uint64(r.Len()):
			r.Fail(fmt.Errorf("candidates: list claims %d IDs in %d bytes", h-slotList, r.Len()))
		default:
			ids := make([]rdf.TermID, h-slotList)
			var prev uint64
			for j := range ids {
				d := r.Upto(math.MaxUint32 - prev)
				if j > 0 && d == 0 {
					r.Fail(fmt.Errorf("candidates: ID %d of a list repeats its predecessor", j))
				}
				prev += d
				ids[j] = rdf.TermID(prev)
			}
			sets[i] = &Set{ids: ids}
		}
		if r.Err() != nil {
			break
		}
		sets[i].size = start - r.Len()
		if sv.Rejects != nil {
			sv.Rejects[i] = int(r.Upto(math.MaxUint32))
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("candidates: site vectors: %w", err)
	}
	return sv, nil
}
