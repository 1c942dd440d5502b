// Workload profile: per-document, per-canonical-query history of observed
// run times. Admission blends a plan's static CostBytes with its EWMA (the
// static estimate mispredicts data-dependent cost; the history corrects
// it).
package server

import "sync"

// ewmaAlpha weights the newest observation: high enough to track workload
// shifts within tens of runs, low enough that one anomalous run does not
// reclassify a query.
const ewmaAlpha = 0.3

// profile is the concurrency-safe history: document → profileKey → the
// exponentially weighted moving average of observed run seconds (queue wait
// excluded).
type profile struct {
	mu   sync.Mutex
	docs map[string]map[string]float64
}

func newProfile() *profile {
	return &profile{docs: map[string]map[string]float64{}}
}

// profileKey identifies a workload entry by canonical query text and
// request mode. The full plan-cache options key embeds server-local limits,
// which do not change what a run costs; mode is the only request-supplied
// compile dimension that changes plan shape. Same-query requests differing
// only in namespaces share an entry.
func profileKey(canonQuery, mode string) string {
	return canonQuery + "\x00" + mode
}

// observe folds one measured run into the entry's EWMA.
func (p *profile) observe(doc, canonQuery, mode string, seconds float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.docs[doc]
	if m == nil {
		m = map[string]float64{}
		p.docs[doc] = m
	}
	k := profileKey(canonQuery, mode)
	if old, ok := m[k]; ok {
		m[k] = old + ewmaAlpha*(seconds-old)
	} else {
		m[k] = seconds
	}
}

// ewma returns the entry's average run time, false when unobserved.
func (p *profile) ewma(doc, canonQuery, mode string) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.docs[doc][profileKey(canonQuery, mode)]
	return e, ok
}
