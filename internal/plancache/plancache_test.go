package plancache

import (
	"fmt"
	"sync"
	"testing"

	"natix"
)

func TestOptionsKeyCanonical(t *testing.T) {
	a := natix.Options{
		Namespaces: map[string]string{"a": "urn:a", "b": "urn:b"},
		Vars:       map[string]struct{}{"x": {}, "y": {}},
	}
	b := natix.Options{
		Namespaces: map[string]string{"b": "urn:b", "a": "urn:a"},
		Vars:       map[string]struct{}{"y": {}, "x": {}},
	}
	if OptionsKey(a) != OptionsKey(b) {
		t.Fatalf("map order leaked into key: %q vs %q", OptionsKey(a), OptionsKey(b))
	}
	if OptionsKey(a) == OptionsKey(natix.Options{}) {
		t.Fatal("namespaces/vars not in key")
	}
	if OptionsKey(natix.Options{Mode: natix.Canonical}) == OptionsKey(natix.Options{}) {
		t.Fatal("mode not in key")
	}
	if OptionsKey(natix.Options{EnablePathIndex: true}) == OptionsKey(natix.Options{DisableMemoX: true}) {
		t.Fatal("flags not distinguished")
	}
	if OptionsKey(natix.Options{Limits: natix.Limits{MaxTuples: 7}}) == OptionsKey(natix.Options{}) {
		t.Fatal("limits not in key")
	}
}

func key(q string) Key {
	return Key{Query: q, Opts: OptionsKey(natix.Options{})}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(3, 0)
	queries := []string{"/a", "/b", "/c"}
	for _, q := range queries {
		c.Put(key(q), natix.MustCompile(q))
	}
	// Touch /a so /b becomes least recently used.
	if _, ok := c.Get(key("/a")); !ok {
		t.Fatal("warm entry missing")
	}
	c.Put(key("/d"), natix.MustCompile("/d"))
	if _, ok := c.Get(key("/b")); ok {
		t.Fatal("LRU entry /b survived eviction")
	}
	for _, q := range []string{"/a", "/c", "/d"} {
		if _, ok := c.Get(key(q)); !ok {
			t.Fatalf("entry %s evicted out of order", q)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	probe := natix.MustCompile("/a/b/c")
	budget := probe.CostBytes()*2 + probe.CostBytes()/2 // room for ~2 plans
	c := New(0, budget)
	c.Put(key("/a/b/c"), probe)
	c.Put(key("/d/e/f"), natix.MustCompile("/d/e/f"))
	c.Put(key("/g/h/i"), natix.MustCompile("/g/h/i"))
	if c.Bytes() > budget {
		t.Fatalf("bytes %d over budget %d", c.Bytes(), budget)
	}
	if c.Len() >= 3 {
		t.Fatalf("no eviction under byte budget (len %d)", c.Len())
	}
	if _, ok := c.Get(key("/a/b/c")); ok {
		t.Fatal("oldest entry survived byte eviction")
	}
	// A plan larger than the whole budget is still admitted (the cache
	// holds at least the latest plan) and evicts everything else.
	tiny := New(0, 1)
	tiny.Put(key("/x"), natix.MustCompile("/x"))
	if tiny.Len() != 1 {
		t.Fatalf("oversized single plan not retained (len %d)", tiny.Len())
	}
}

func TestPutRefreshAndGetOrCompile(t *testing.T) {
	c := New(4, 0)
	p1, cached, err := c.GetOrCompile("//x", natix.Options{})
	if err != nil || cached {
		t.Fatalf("first lookup: cached=%v err=%v", cached, err)
	}
	p2, cached, err := c.GetOrCompile("//x", natix.Options{})
	if err != nil || !cached {
		t.Fatalf("second lookup: cached=%v err=%v", cached, err)
	}
	// Pointer identity proves the hit path skipped parse/translate/codegen
	// entirely: it is the same compiled artifact.
	if p1 != p2 {
		t.Fatal("cache hit returned a different plan")
	}
	// Different options are different keys.
	if _, cached, _ := c.GetOrCompile("//x", natix.Options{Mode: natix.Canonical}); cached {
		t.Fatal("options change served a stale plan")
	}
	if _, _, err := c.GetOrCompile("][", natix.Options{}); err == nil {
		t.Fatal("parse error not surfaced")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 1.0/4.0 {
		t.Fatalf("hit rate = %v", got)
	}
}

// TestConcurrentStress races hits, misses and evictions of one cache from 8
// goroutines; run under -race.
func TestConcurrentStress(t *testing.T) {
	c := New(8, 0)
	queries := make([]string, 12)
	for i := range queries {
		queries[i] = fmt.Sprintf("/r/x[%d]", i+1)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				q := queries[(g+r)%len(queries)]
				p, _, err := c.GetOrCompile(q, natix.Options{})
				if err != nil {
					errs <- err
					return
				}
				if p.String() != q {
					errs <- fmt.Errorf("got plan %q for %q", p.String(), q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.Len() > 8 {
		t.Fatalf("entry budget violated: %d", c.Len())
	}
}

// BenchmarkColdCompile and BenchmarkCacheHit are the guard pair for the
// plan cache: the hit path must be orders of magnitude cheaper because it
// skips parse/normalize/translate/codegen entirely (the pointer-identity
// check in TestPutRefreshAndGetOrCompile enforces the invariant; the
// benchmarks quantify it for EXPERIMENTS.md and the ci.sh guard).
func BenchmarkColdCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := natix.Compile("/site/people/person[position() = last()]/name"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c := New(4, 0)
	const q = "/site/people/person[position() = last()]/name"
	if _, _, err := c.GetOrCompile(q, natix.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cached, _ := c.GetOrCompile(q, natix.Options{}); !cached {
			b.Fatal("unexpected miss")
		}
	}
}

// TestCanonicalSharing: syntactic variants of one query share one cache
// entry through GetOrCompileCanonical, and hits whose submitted text
// differed from the canonical key are counted as normalized hits.
func TestCanonicalSharing(t *testing.T) {
	c := New(8, 0)
	p1, cq1, hit, err := c.GetOrCompileCanonical("//b", natix.Options{}, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first lookup hit an empty cache")
	}
	for _, variant := range []string{
		"/descendant-or-self::node()/child::b", "/descendant::b", " // b ",
	} {
		p2, cq2, hit, err := c.GetOrCompileCanonical(variant, natix.Options{}, "", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cq2 != cq1 {
			t.Fatalf("canonical keys diverge: %q vs %q", cq2, cq1)
		}
		if !hit || p2 != p1 {
			t.Fatalf("variant %q did not share the cached plan (hit=%v)", variant, hit)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("variants fragmented the cache: %d entries", c.Len())
	}
	// "/descendant::b" is itself the canonical text, so of the three
	// variants only two hits are attributable to normalization.
	st := c.Stats()
	if st.NormalizedHits != 2 {
		t.Fatalf("NormalizedHits = %d, want 2", st.NormalizedHits)
	}
	// An exact canonical-text resubmission is a plain hit, not a normalized one.
	if _, _, hit, err := c.GetOrCompileCanonical(cq1, natix.Options{}, "", 0, 0); err != nil || !hit {
		t.Fatalf("canonical-text lookup: hit=%v err=%v", hit, err)
	}
	if st := c.Stats(); st.NormalizedHits != 2 {
		t.Fatalf("exact-text hit wrongly counted as normalized: %d", st.NormalizedHits)
	}
	// Unparseable queries degrade to exact-text caching.
	if _, cq, _, err := c.GetOrCompileCanonical("a[", natix.Options{}, "", 0, 0); err == nil || cq != "a[" {
		t.Fatalf("unparseable query: cq=%q err=%v", cq, err)
	}
}
