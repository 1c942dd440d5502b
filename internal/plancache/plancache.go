// Package plancache caches compiled query plans. Whole-query compilation —
// parse, normalize, analyze, translate, codegen — is the expensive fixed
// cost of short queries (cf. "XPath Whole Query Optimization"), and a
// natix.Prepared is immutable and safe for concurrent Run calls, so one
// compilation can serve every subsequent execution of the same query text
// under the same options.
//
// A plan holds nothing per document (paper §5.1: the document is bound only
// at run time, through the context node): id() resolves through the
// document's own ID map, and access paths are decided per run against the
// live path index. So entries are keyed by (canonical query text,
// canonicalized options) alone, one plan serves every document and every
// generation of it, and a reload invalidates nothing.
//
// The cache is a strict LRU bounded both by entry count and by an
// approximate byte budget (natix.Prepared.CostBytes, the same coarse
// accounting philosophy as the governor's materialization estimates).
package plancache

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"

	"natix"
	"natix/internal/canon"
	"natix/internal/metrics"
)

// Cache-wide metrics, on the process-wide default registry.
var (
	mHits      = metrics.Default.Counter("natix_plancache_hits_total", "Plan lookups answered from cache.")
	mNormHits  = metrics.Default.Counter("natix_plancache_normalized_hits_total", "Plan cache hits where the submitted text differed from the canonical key — hits only normalization could have served.")
	mMisses    = metrics.Default.Counter("natix_plancache_misses_total", "Plan lookups that compiled.")
	mEvictions = metrics.Default.Counter("natix_plancache_evictions_total", "Plans evicted by the entry or byte budget.")
	mEntries   = metrics.Default.Gauge("natix_plancache_entries", "Plans currently cached.")
	mBytes     = metrics.Default.Gauge("natix_plancache_bytes", "Estimated bytes of cached plans.")
)

// Key identifies one cached plan.
type Key struct {
	// Query is the XPath source text, verbatim.
	Query string
	// Opts is the canonicalized compile-options string (OptionsKey).
	Opts string
}

// OptionsKey canonicalizes compile options into a stable string: equal
// option sets map to equal keys regardless of map iteration order.
func OptionsKey(o natix.Options) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "m=%d", o.Mode)
	if len(o.Namespaces) > 0 {
		prefixes := make([]string, 0, len(o.Namespaces))
		for p := range o.Namespaces {
			prefixes = append(prefixes, p)
		}
		sort.Strings(prefixes)
		sb.WriteString(";ns=")
		for i, p := range prefixes {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%q:%q", p, o.Namespaces[p])
		}
	}
	if len(o.Vars) > 0 {
		vars := make([]string, 0, len(o.Vars))
		for v := range o.Vars {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		fmt.Fprintf(&sb, ";vars=%q", strings.Join(vars, ","))
	}
	l := o.Limits
	if l.MaxTuples != 0 || l.MaxBytes != 0 || l.MaxSteps != 0 {
		fmt.Fprintf(&sb, ";lim=%d,%d,%d", l.MaxTuples, l.MaxBytes, l.MaxSteps)
	}
	flags := []struct {
		on bool
		c  byte
	}{
		{o.DisableDupElimPush, 'd'},
		{o.DisableStacked, 's'},
		{o.DisableMemoX, 'x'},
		{o.DisablePredReorder, 'p'},
		{o.DisableSmartAggregation, 'a'},
		{o.DisablePathRewrite, 'r'},
		{o.EnablePathIndex, 'P'},
	}
	var fs []byte
	for _, f := range flags {
		if f.on {
			fs = append(fs, f.c)
		}
	}
	if len(fs) > 0 {
		fmt.Fprintf(&sb, ";f=%s", fs)
	}
	return sb.String()
}

// Stats are one cache's own counters (the package metrics aggregate across
// caches and across test runs; these do not).
type Stats struct {
	Hits, Misses, Evictions int64
	// Invalidations is always 0: nothing invalidates a plan. It stays for
	// readers that report it.
	Invalidations int64
	// NormalizedHits counts the subset of Hits where the submitted query
	// text differed from the canonical key it hit under — cache value
	// attributable to normalization rather than exact-text repetition.
	NormalizedHits int64
}

// HitRate returns hits / lookups, zero when the cache is untouched.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type centry struct {
	key  Key
	plan *natix.Prepared
	size int64
}

// Cache is a concurrency-safe LRU of compiled plans. The zero value is
// unusable; use New.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[Key]*list.Element
	stats      Stats
}

// New returns a cache bounded by maxEntries plans and maxBytes estimated
// plan bytes. Zero disables the respective budget; both zero means
// unbounded (tests only — serving processes should always set at least one).
func New(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      map[Key]*list.Element{},
	}
}

// Get returns the cached plan for k, marking it most recently used.
func (c *Cache) Get(k Key) (*natix.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.stats.Misses++
		if metrics.Enabled() {
			mMisses.Inc()
		}
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	if metrics.Enabled() {
		mHits.Inc()
	}
	return el.Value.(*centry).plan, true
}

// Peek returns the cached plan for k without touching recency or hit/miss
// accounting. Admission control uses it to read a plan's cost class; those
// lookups must not skew the cache's serving statistics or evict order.
func (c *Cache) Peek(k Key) (*natix.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	return el.Value.(*centry).plan, true
}

// Put admits a plan under k, evicting least-recently-used entries until
// both budgets hold. Re-admitting an existing key refreshes its recency.
func (c *Cache) Put(k Key, p *natix.Prepared) {
	size := p.CostBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*centry)
		c.bytes += size - e.size
		e.plan, e.size = p, size
	} else {
		el := c.ll.PushFront(&centry{key: k, plan: p, size: size})
		c.items[k] = el
		c.bytes += size
	}
	for c.overBudget() {
		back := c.ll.Back()
		if back == nil || back == c.ll.Front() {
			break // never evict the entry just admitted
		}
		c.remove(back)
		c.stats.Evictions++
		mEvictions.Inc()
	}
	c.publish()
}

// GetOrCompile returns the plan for (query, opt), compiling and admitting
// it on a miss. The compile runs outside the cache lock, so concurrent
// missers of one key may compile redundantly (last writer wins) — lookups
// never block behind a slow compile. The boolean reports whether the plan
// came from cache.
func (c *Cache) GetOrCompile(query string, opt natix.Options) (*natix.Prepared, bool, error) {
	k := Key{Query: query, Opts: OptionsKey(opt)}
	if p, ok := c.Get(k); ok {
		return p, true, nil
	}
	p, err := natix.CompileWith(query, opt)
	if err != nil {
		return nil, false, err
	}
	c.Put(k, p)
	return p, false, nil
}

// GetOrCompileNormalized is GetOrCompile for a query the caller has already
// canonicalized (internal/canon); normalized reports whether the submitted
// text differed from canonQuery, so hits the exact-text cache could never
// have served are attributed to normalization in Stats and on /metrics.
func (c *Cache) GetOrCompileNormalized(canonQuery string, normalized bool, opt natix.Options) (*natix.Prepared, bool, error) {
	p, hit, err := c.GetOrCompile(canonQuery, opt)
	if hit && normalized {
		c.mu.Lock()
		c.stats.NormalizedHits++
		c.mu.Unlock()
		if metrics.Enabled() {
			mNormHits.Inc()
		}
	}
	return p, hit, err
}

// GetOrCompileCanonical canonicalizes query (internal/canon) and serves it
// via GetOrCompileNormalized, so syntactic variants share one entry. The
// canonical text is returned for callers that key other state (singleflight,
// workload profiles) off it. The last three parameters are ignored: plans
// are not keyed by document. They remain until the benchmark, which passes
// them, drops them.
func (c *Cache) GetOrCompileCanonical(query string, opt natix.Options, _ string, _, _ uint64) (*natix.Prepared, string, bool, error) {
	cq, changed := canon.Canonicalize(query)
	p, hit, err := c.GetOrCompileNormalized(cq, changed, opt)
	return p, cq, hit, err
}

// overBudget reports whether either budget is exceeded. Caller holds mu.
func (c *Cache) overBudget() bool {
	if c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
		return true
	}
	return c.maxBytes > 0 && c.bytes > c.maxBytes
}

// remove unlinks an element. Caller holds mu.
func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*centry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
}

// publish mirrors occupancy to the gauges. Caller holds mu.
func (c *Cache) publish() {
	mEntries.Set(int64(c.ll.Len()))
	mBytes.Set(c.bytes)
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the estimated bytes of cached plans.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of this cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Keys returns the cached keys from most to least recently used (tests).
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]Key, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*centry).key)
	}
	return keys
}
