package partial

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// orderDigest is the sha256 over the pinnedKey sequence Compute returns for
// every fragment of d in turn, first without an EdgeRank and then under
// the rank the engine would send (the global plan's), at the given pool
// width. Fragment and pass boundaries are part of the digest; n is the
// number of matches it covers.
func orderDigest(t *testing.T, d *fragment.Distributed, global *store.Store, q *query.Graph, width int) (digest string, n int) {
	t.Helper()
	rank := make([]int, len(q.Edges))
	for k, pe := range global.Plan(q) {
		rank[pe.Edge] = k
	}
	var p *pool.Pool
	if width > 1 {
		p = pool.New(width)
	}
	h := sha256.New()
	for _, f := range d.Fragments {
		for pass, r := range [][]int{nil, rank} {
			ms, err := Compute(f, q, Options{EdgeRank: r, Pool: p})
			if err != nil {
				t.Fatalf("F%d: %v", f.ID, err)
			}
			fmt.Fprintf(h, "F%d/%d:%d\n", f.ID, pass, len(ms))
			for _, m := range ms {
				h.Write(pinnedKey(q, m))
				h.Write([]byte{'\n'})
			}
			n += len(ms)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), n
}

// pinnedKey is the byte key a match had when the digests below were
// captured: big-endian fields, 8 bytes an int or a mask and 4 a TermID
// or a section's length; EdgeVars one slot per query variable even
// without a label variable, and the matched-edge mask between them and
// the crossing edges.
func pinnedKey(q *query.Graph, m *Match) []byte {
	be := binary.BigEndian
	evs := m.EdgeVars
	if evs == nil {
		evs = make([]rdf.TermID, len(q.Vars))
	}
	b := be.AppendUint64(nil, uint64(m.Frag))
	for _, ts := range [][]rdf.TermID{m.Vec, evs} {
		b = be.AppendUint32(b, uint32(len(ts)))
		for _, t := range ts {
			b = be.AppendUint32(b, uint32(t))
		}
	}
	b = be.AppendUint64(b, matchedEdges(q, m))
	b = be.AppendUint32(b, uint32(len(m.Crossing)))
	for _, c := range m.Crossing {
		b = be.AppendUint64(b, uint64(c.QEdge))
		b = be.AppendUint32(be.AppendUint32(be.AppendUint32(b, uint32(c.S)), uint32(c.P)), uint32(c.O))
	}
	return b
}

// computeOrderPinned holds, per dataset/strategy/query, the digest of
// Compute's output order and the number of matches under it, captured
// on the tree of PR 19 — before the two enumerators shared one search.
// Cases with no partial match at all (one fragment holds the whole
// pattern) are left out of the table and must stay empty.
var computeOrderPinned = map[string]string{
	"paper":                   "8433dce9107a5321 16",
	"BTC1/hash/BQ1":           "d0979cc7d88d706a 644",
	"BTC1/hash/BQ2":           "ec04a49aa11a95d1 1262",
	"BTC1/hash/BQ3":           "f850edf13aeaf085 876",
	"BTC1/hash/BQ4":           "c9a1190743cee6dd 3426",
	"BTC1/hash/BQ5":           "4ca0e91daf7e5072 1976",
	"BTC1/hash/BQ6":           "8992c32a47933446 2552",
	"BTC1/hash/BQ7":           "347e6c95879b5958 692",
	"BTC1/metis/BQ2":          "6a6eb5c793ceb882 244",
	"BTC1/metis/BQ4":          "164bbbc4d869466c 722",
	"BTC1/metis/BQ5":          "bc72982394518aa5 322",
	"BTC1/metis/BQ6":          "9de68379bdd60347 248",
	"BTC1/metis/BQ7":          "b217b08d22d77d79 20",
	"BTC1/semantic-hash/BQ2":  "d676da9215712a06 294",
	"BTC1/semantic-hash/BQ3":  "6b66a4df21ccb5f1 8",
	"BTC1/semantic-hash/BQ4":  "c8877225d18c0f46 870",
	"BTC1/semantic-hash/BQ5":  "5c5bb1ae83290b8c 790",
	"BTC1/semantic-hash/BQ6":  "81eaf1619babb89d 1080",
	"LUBM1/hash/LQ1":          "6592f4e39f5d48a1 234",
	"LUBM1/hash/LQ2":          "496385ff1f47ce4e 596",
	"LUBM1/hash/LQ3":          "e949d8a7c2acb50e 36",
	"LUBM1/hash/LQ4":          "2a19e7a67b998866 100",
	"LUBM1/hash/LQ5":          "84fd79a1f9bc9756 46",
	"LUBM1/hash/LQ7":          "4f3f3f920d7771c0 598",
	"LUBM1/metis/LQ2":         "88a74cd0b0fa0ec6 190",
	"LUBM1/metis/LQ5":         "145c1e27f3f9efd5 12",
	"LUBM1/metis/LQ7":         "5c7a60e5a7f26dc7 162",
	"LUBM1/semantic-hash/LQ5": "03e5e32942dd6b37 14",
	"LUBM3/hash/LQ1":          "5f385cb254871bd3 750",
	"LUBM3/hash/LQ2":          "5570f3abbaf85a46 1868",
	"LUBM3/hash/LQ3":          "84c7566f29009a53 52",
	"LUBM3/hash/LQ4":          "de600e08d51c0207 266",
	"LUBM3/hash/LQ5":          "648d13f1ab7145eb 114",
	"LUBM3/hash/LQ6":          "9ddd7c8fee93679d 166",
	"LUBM3/hash/LQ7":          "002c9be33aa6153b 1828",
	"LUBM3/metis/LQ1":         "9818e0954c839b45 8",
	"LUBM3/metis/LQ2":         "1d9bd37a534ef13e 108",
	"LUBM3/metis/LQ3":         "961b74d65ca98c2b 22",
	"LUBM3/metis/LQ4":         "7edfc6ad4e27b2fb 10",
	"LUBM3/metis/LQ5":         "d90d11c26f0c7623 62",
	"LUBM3/metis/LQ6":         "32dc3af72468affc 28",
	"LUBM3/metis/LQ7":         "a48eb138027c4d00 106",
	"LUBM3/semantic-hash/LQ3": "3ea5270afc2043ca 12",
	"LUBM3/semantic-hash/LQ5": "7b9903884fae669c 74",
	"LUBM3/semantic-hash/LQ6": "6b8abc5d0978c0fe 26",
	"YAGO1/hash/YQ1":          "ba29cac775d4d0bb 48600",
	"YAGO1/hash/YQ3":          "726750fe7f804be9 15248",
	"YAGO1/hash/YQ4":          "6afcfda372c8a2f1 626",
	"YAGO1/metis/YQ1":         "130a005158712297 4050",
	"YAGO1/metis/YQ3":         "d6c42b133de7cb69 90",
	"YAGO1/metis/YQ4":         "e2ed0ccd68cc2a11 90",
	"YAGO1/semantic-hash/YQ1": "6b1ac3d6bdfe427f 48600",
	"YAGO1/semantic-hash/YQ3": "71451f1348da7187 15248",
	"YAGO1/semantic-hash/YQ4": "0623d48b5a7fc1b7 626",
}

// TestComputeOrderPinned pins the order of Compute's output — which
// match, grown from which seed, in which position — to literals captured
// before the rewrite: the old build-then-deduplicate enumerator and the
// keep-first seeding rule that replaced it must return the same
// sequence, sequentially and chunked alike.
func TestComputeOrderPinned(t *testing.T) {
	check := func(t *testing.T, name string, d *fragment.Distributed, global *store.Store, q *query.Graph) {
		for _, w := range []int{1, 2, 8} {
			digest, n := orderDigest(t, d, global, q, w)
			got := fmt.Sprintf("%s %d", digest, n)
			want, ok := computeOrderPinned[name]
			if !ok && n == 0 {
				continue
			}
			if got != want {
				t.Errorf("width %d:\n\t%q: %q,\nwant %q", w, name, got, want)
			}
		}
	}
	t.Run("paper", func(t *testing.T) {
		ex, d := buildPaper(t)
		check(t, "paper", d, ex.Store, ex.Query)
	})
	datasets := []struct {
		name string
		ds   *workload.Dataset
	}{
		{"LUBM1", workload.NewLUBM(workload.LUBMConfig{Universities: 1, Seed: 7})},
		{"LUBM3", workload.NewLUBM(workload.LUBMConfig{Universities: 3, Seed: 7})},
		{"YAGO1", workload.NewYAGO(workload.YAGOConfig{Scale: 1})},
		{"BTC1", workload.NewBTC(workload.BTCConfig{Scale: 1})},
	}
	for _, c := range datasets {
		global := store.FromGraph(c.ds.Graph)
		for _, strat := range []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}} {
			d, err := fragment.BuildWith(global, strat, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, bq := range c.ds.Queries {
				q, err := bq.Parse(c.ds.Graph.Dict)
				if err != nil {
					t.Fatal(err)
				}
				name := c.name + "/" + strat.Name() + "/" + bq.Name
				t.Run(name, func(t *testing.T) { check(t, name, d, global, q) })
			}
		}
	}
}
