package canon

import "sync"

// memoCap bounds a Memo; at capacity the map is flushed whole (the memo is
// a latency optimization, not state).
const memoCap = 4096

type memoEntry struct {
	text    string
	changed bool
}

// Memo is a bounded, concurrency-safe memo of Canonicalize keyed by exact
// query text: three parses per request (normalize, validate, re-validate)
// are measurable on a serving hot path, and skewed workloads re-submit the
// same spellings constantly. The zero value is ready to use.
type Memo struct {
	mu sync.RWMutex
	m  map[string]memoEntry
}

// Canonicalize is the memoized Canonicalize.
func (m *Memo) Canonicalize(q string) (string, bool) {
	m.mu.RLock()
	e, ok := m.m[q]
	m.mu.RUnlock()
	if ok {
		return e.text, e.changed
	}
	text, changed := Canonicalize(q)
	m.mu.Lock()
	if m.m == nil || len(m.m) >= memoCap {
		m.m = map[string]memoEntry{}
	}
	m.m[q] = memoEntry{text, changed}
	m.mu.Unlock()
	return text, changed
}
