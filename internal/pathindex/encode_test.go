package pathindex

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"natix/internal/dom"
)

// sameSummary fails unless two indexes hold the same summary: paths, node
// lists and derived subtree counts.
func sameSummary(t *testing.T, label string, a, b *Index) {
	t.Helper()
	if a.NodeCount() != b.NodeCount() || a.PathCount() != b.PathCount() {
		t.Fatalf("%s: counts differ: nodes %d/%d paths %d/%d",
			label, a.NodeCount(), b.NodeCount(), a.PathCount(), b.PathCount())
	}
	for i := 0; i < a.PathCount(); i++ {
		p, q := &a.paths[i], &b.paths[i]
		if p.Parent != q.Parent || p.URI != q.URI || p.Local != q.Local ||
			p.Others != q.Others || len(p.Nodes) != len(q.Nodes) {
			t.Fatalf("%s: path %d differs: %+v vs %+v", label, i, p, q)
		}
		for j := range p.Nodes {
			if p.Nodes[j] != q.Nodes[j] {
				t.Fatalf("%s: path %d node %d differs", label, i, j)
			}
		}
		if a.subCount[i] != b.subCount[i] || a.subOther[i] != b.subOther[i] {
			t.Fatalf("%s: path %d derived counts differ", label, i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 10; round++ {
		d := buildRandom(rng, 120)
		ix := Build(d)
		dec, err := Decode(ix.Encode(), d.NodeCount())
		if err != nil {
			t.Fatalf("round %d: Decode: %v", round, err)
		}
		sameSummary(t, "round trip", ix, dec)
	}
}

// TestDecodeReadsVersion1: a version-1 blob, which carries 6 bytes of
// per-node interval encoding per node after the header, decodes to the same
// summary as the version-2 blob of the same index.
func TestDecodeReadsVersion1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 10; round++ {
		d := buildRandom(rng, 120)
		v2 := Build(d).Encode()
		n := d.NodeCount()
		v1 := append([]byte(nil), v2[:16]...)
		binary.LittleEndian.PutUint32(v1[4:], 1)
		v1 = append(v1, bytes.Repeat([]byte{0xA5}, 6*n)...)
		v1 = reseal(append(v1, v2[16:]...))
		want, err := Decode(v2, n)
		if err != nil {
			t.Fatalf("round %d: v2: %v", round, err)
		}
		got, err := Decode(v1, n)
		if err != nil {
			t.Fatalf("round %d: v1: %v", round, err)
		}
		sameSummary(t, "v1 vs v2", want, got)
		if !bytes.Equal(got.Encode(), v2) {
			t.Fatalf("round %d: a decoded v1 blob re-encodes differently from v2", round)
		}
		// Without the per-node arrays the v1 header claims, the blob is short.
		short := append([]byte(nil), v2...)
		binary.LittleEndian.PutUint32(short[4:], 1)
		if _, err := Decode(reseal(short), n); err == nil {
			t.Fatalf("round %d: v1 blob without its per-node arrays accepted", round)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	d := mustParse(t, `<r><a><b/></a><a/></r>`)
	ix := Build(d)
	blob := ix.Encode()

	if _, err := Decode(nil, d.NodeCount()); err == nil {
		t.Error("empty blob accepted")
	}
	if _, err := Decode(blob[:len(blob)-1], d.NodeCount()); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := Decode(blob, d.NodeCount()+1); err == nil {
		t.Error("node-count mismatch accepted")
	}
	// Every single-byte flip must be caught by the CRC.
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if _, err := Decode(mut, d.NodeCount()); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
	// A wrong version with a recomputed CRC must still be rejected.
	mut := append([]byte(nil), blob...)
	mut[4] = 0xFF
	mut = reseal(mut)
	if _, err := Decode(mut, d.NodeCount()); err == nil {
		t.Error("future version accepted")
	}

	// Well-checksummed blobs whose summary is wrong: Encode seals whatever
	// the index holds. Paths: (doc), /r, /r/a with two nodes, /r/a/b.
	for _, c := range []struct {
		name string
		bend func(ps []Path)
	}{
		{"swapped node pair", func(ps []Path) { ps[2].Nodes[0], ps[2].Nodes[1] = ps[2].Nodes[1], ps[2].Nodes[0] }},
		{"node id past nodeCount", func(ps []Path) { ps[3].Nodes[0] = dom.NodeID(ix.NodeCount() + 1) }},
		{"duplicate node", func(ps []Path) { ps[2].Nodes[1] = ps[2].Nodes[0] }},
		{"nil node", func(ps []Path) { ps[3].Nodes[0] = 0 }},
		{"second root path", func(ps []Path) { ps[1].Parent = -1 }},
	} {
		bent := &Index{nodeCount: ix.nodeCount, paths: append([]Path(nil), ix.paths...)}
		for i := range bent.paths {
			bent.paths[i].Nodes = append([]dom.NodeID(nil), ix.paths[i].Nodes...)
		}
		c.bend(bent.paths)
		if _, err := Decode(bent.Encode(), d.NodeCount()); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// reseal recomputes the trailing CRC after a deliberate mutation.
func reseal(blob []byte) []byte {
	body := append([]byte(nil), blob[:len(blob)-4]...)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}
