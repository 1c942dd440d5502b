package dom

import (
	"math/rand"
	"testing"
)

// wideDoc builds a document of n empty elements under one root.
func wideDoc(n int) *MemDoc {
	b := NewBuilder()
	b.StartElement("", "r", "")
	for i := 0; i < n; i++ {
		b.StartElement("", "e", "")
		b.EndElement()
	}
	b.EndElement()
	return b.Doc()
}

// TestVisitedSet checks the set against a map over a document spanning
// several leaves, and that a Reset set is empty, keeps its memory and
// re-marks without allocating.
func TestVisitedSet(t *testing.T) {
	d := wideDoc(100_000)
	v := NewVisited(d)
	empty := v.Bytes()
	rng := rand.New(rand.NewSource(5))
	var ids []NodeID
	want := map[NodeID]bool{}
	for i := 0; i < 500; i++ {
		id := NodeID(1 + rng.Intn(d.NodeCount()))
		ids = append(ids, id)
		want[id] = true
		v.Mark(id)
	}
	for id := NodeID(1); int(id) <= d.NodeCount(); id++ {
		if v.Has(id) != want[id] {
			t.Fatalf("Has(%d) = %v, want %v", id, v.Has(id), want[id])
		}
	}
	held := v.Bytes()
	if leaves := (held - empty) / (leafWords * 8); leaves != int64(d.NodeCount()>>leafShift+1) {
		t.Errorf("%d bytes held for %d nodes: %d leaves", held, d.NodeCount(), leaves)
	}
	if b := v.Uncharged(); b != held {
		t.Errorf("first Uncharged = %d, want %d", b, held)
	}
	if b := v.Uncharged(); b != 0 {
		t.Errorf("second Uncharged = %d, want 0", b)
	}
	v.Reset()
	for _, id := range ids {
		if v.Has(id) {
			t.Fatalf("node %d still marked after Reset", id)
		}
	}
	if v.Bytes() != held || v.Uncharged() != held {
		t.Errorf("after Reset the set holds %d bytes, reports %d", v.Bytes(), held)
	}
	if a := testing.AllocsPerRun(20, func() {
		for _, id := range ids {
			v.Mark(id)
		}
		v.Reset()
	}); a != 0 {
		t.Errorf("re-marking after Reset allocates %.1f times", a)
	}
}

// TestVisitedSmallDocument: a document smaller than a leaf gets one leaf
// sized to it.
func TestVisitedSmallDocument(t *testing.T) {
	d := wideDoc(100)
	v := NewVisited(d)
	v.Mark(NodeID(d.NodeCount()))
	if !v.Has(NodeID(d.NodeCount())) || v.Has(1) {
		t.Fatal("wrong membership")
	}
	if b := v.Bytes(); b > 64 {
		t.Errorf("%d bytes for a %d-node document", b, d.NodeCount())
	}
}
