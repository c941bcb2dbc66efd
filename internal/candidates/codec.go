package candidates

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"gstored/internal/rdf"
)

// The encoding of a SiteVectors, the only one stage 0 has: the slot count
// as a uvarint, then per slot one uvarint header h and its body.
//
//	h = 0      no set (a constant query vertex)
//	h = 1      bits: the word count as a uvarint, then the words, little-endian
//	h = n + 2  list of n IDs: the first as a uvarint, each next as the uvarint
//	           difference from its predecessor
//
// so an empty set is the one byte 2. Every uvarint is in its shortest
// form, which makes the encoding of a value unique: what decodes
// re-encodes to the same bytes.
const (
	slotNone = 0
	slotBits = 1
	slotList = 2
)

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// listSize is the encoded length of a list slot holding ids.
func listSize(ids []rdf.TermID) int {
	n := uvarintLen(uint64(len(ids)) + slotList)
	var prev rdf.TermID
	for _, u := range ids {
		n += uvarintLen(uint64(u - prev))
		prev = u
	}
	return n
}

// vectorSize is the encoded length of a bits slot of that many words.
func vectorSize(words int) int { return 1 + uvarintLen(uint64(words)) + 8*words }

// ShipmentBytes is the wire size of the site's sets: the length of their
// encoding.
func (s *SiteVectors) ShipmentBytes() int {
	n := uvarintLen(uint64(len(s.Sets)))
	for _, set := range s.Sets {
		if set == nil {
			n++
		} else {
			n += set.size
		}
	}
	return n
}

// GobEncode implements gob.GobEncoder with the encoding above, so the
// coordinator↔worker RPC carries exactly the bytes ShipmentBytes prices.
func (s *SiteVectors) GobEncode() ([]byte, error) {
	out := binary.AppendUvarint(make([]byte, 0, s.ShipmentBytes()), uint64(len(s.Sets)))
	for _, set := range s.Sets {
		switch {
		case set == nil:
			out = append(out, slotNone)
		case set.vec != nil:
			out = append(out, slotBits)
			out = binary.AppendUvarint(out, uint64(len(set.vec.bits)))
			for _, w := range set.vec.bits {
				out = binary.LittleEndian.AppendUint64(out, w)
			}
		default:
			out = binary.AppendUvarint(out, uint64(len(set.ids))+slotList)
			var prev rdf.TermID
			for _, u := range set.ids {
				out = binary.AppendUvarint(out, uint64(u-prev))
				prev = u
			}
		}
	}
	return out, nil
}

var errTruncated = errors.New("candidates: truncated site-vectors payload")

// uvarint cuts one shortest-form uvarint off data.
func uvarint(data []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(data)
	if n == 0 {
		return 0, nil, errTruncated
	}
	if n < 0 || n != uvarintLen(x) {
		return 0, nil, errors.New("candidates: overlong varint in site-vectors payload")
	}
	return x, data[n:], nil
}

// GobDecode implements gob.GobDecoder. The payload comes off a socket and
// is not trusted: every count is checked against the bytes that are left
// before anything is allocated for it (a slot, an ID and a word each take
// at least one), IDs must increase strictly within the TermID range, and
// nothing may follow the last slot.
func (s *SiteVectors) GobDecode(data []byte) error {
	slots, data, err := uvarint(data)
	if err != nil {
		return err
	}
	if slots > uint64(len(data)) {
		return fmt.Errorf("candidates: site-vectors claim %d slots in %d bytes", slots, len(data))
	}
	sets := make([]*Set, slots)
	for i := range sets {
		start := len(data)
		var h uint64
		if h, data, err = uvarint(data); err != nil {
			return err
		}
		switch h {
		case slotNone:
			continue
		case slotBits:
			var words uint64
			if words, data, err = uvarint(data); err != nil {
				return err
			}
			if words == 0 || words > uint64(len(data))/8 {
				return fmt.Errorf("candidates: bit vector claims %d words in %d bytes", words, len(data))
			}
			vec := &BitVector{bits: make([]uint64, words), n: int(words) * 64}
			for j := range vec.bits {
				vec.bits[j] = binary.LittleEndian.Uint64(data[8*j:])
			}
			data = data[8*words:]
			sets[i] = &Set{vec: vec}
		default:
			n := h - slotList
			if n > uint64(len(data)) {
				return fmt.Errorf("candidates: list claims %d IDs in %d bytes", n, len(data))
			}
			ids := make([]rdf.TermID, n)
			var prev uint64
			for j := range ids {
				var d uint64
				if d, data, err = uvarint(data); err != nil {
					return err
				}
				if (j > 0 && d == 0) || d > math.MaxUint32-prev {
					return fmt.Errorf("candidates: ID %d of a list does not increase within the ID range", j)
				}
				prev += d
				ids[j] = rdf.TermID(prev)
			}
			sets[i] = &Set{ids: ids}
		}
		sets[i].size = start - len(data)
	}
	if len(data) != 0 {
		return fmt.Errorf("candidates: %d trailing bytes after site vectors", len(data))
	}
	s.Sets = sets
	return nil
}
