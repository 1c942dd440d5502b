package canon

import (
	"fmt"
	"sync"
	"testing"
)

// TestMemoMatchesCanonicalize: memoized answers, first and repeated, equal
// the direct ones — including unparsable input, returned unchanged.
func TestMemoMatchesCanonicalize(t *testing.T) {
	var m Memo
	for _, q := range []string{"//a", " // a ", "count(//x)", "a[b or a]", "][", "$v/."} {
		wantText, wantChanged := Canonicalize(q)
		for i := 0; i < 2; i++ {
			if text, changed := m.Canonicalize(q); text != wantText || changed != wantChanged {
				t.Fatalf("memo(%q) pass %d = %q,%v, want %q,%v", q, i, text, changed, wantText, wantChanged)
			}
		}
	}
}

// TestMemoFlushesAtCap: the memo never holds more than memoCap entries; the
// insert that finds it full starts a fresh map.
func TestMemoFlushesAtCap(t *testing.T) {
	var m Memo
	for i := 0; i < memoCap; i++ {
		m.Canonicalize(fmt.Sprintf("child::e%d", i))
	}
	if len(m.m) != memoCap {
		t.Fatalf("memo holds %d entries, want %d", len(m.m), memoCap)
	}
	m.Canonicalize("child::overflow")
	if len(m.m) != 1 {
		t.Fatalf("memo holds %d entries after the flush, want 1", len(m.m))
	}
	if text, _ := m.Canonicalize("child::e0"); text != "child::e0" {
		t.Fatalf("flushed entry recomputed as %q", text)
	}
}

// TestMemoConcurrent: concurrent readers and writers, flushes included,
// always see the direct answer. Run under -race.
func TestMemoConcurrent(t *testing.T) {
	var m Memo
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 600; i++ {
				q := fmt.Sprintf("//e%d", (g*600+i)%(memoCap+500))
				want, _ := Canonicalize(q)
				if got, _ := m.Canonicalize(q); got != want {
					t.Errorf("memo(%q) = %q, want %q", q, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
