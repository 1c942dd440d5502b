package physical

import (
	"natix/internal/dom"
	"natix/internal/nvm"
)

// PathIndexScan emits a precomputed, document-ordered, duplicate-free node
// list into the output register: the access path the code generator
// substitutes for a chain of axis UnnestMaps when the structural path index
// answers the chain exactly and the cost model favors it. IDs are resolved
// at plan instantiation (the decision point), so Open/Next never touch the
// document — the scan is O(matches) regardless of document size.
//
// Tuple accounting matches the UnnestMap chain's output column: one tuple
// per emitted node, governor-polled, in both protocols.
type PathIndexScan struct {
	Ex     *Exec
	OutReg int
	IDs    []dom.NodeID
	// Batch marks this instance batch-capable (the replaced chain's top
	// operator was batch-marked).
	Batch bool

	idx int
}

// Open implements Iter.
func (s *PathIndexScan) Open() error {
	s.idx = 0
	return nil
}

// Next implements Iter.
func (s *PathIndexScan) Next() (bool, error) {
	if s.idx >= len(s.IDs) {
		return false, nil
	}
	s.Ex.M.Regs[s.OutReg] = nvm.NodeVal(dom.Node{Doc: s.Ex.CtxDoc, ID: s.IDs[s.idx]})
	s.idx++
	s.Ex.Stats.Tuples++
	if err := s.Ex.Gov.Tuples(s.Ex.Stats.Tuples); err != nil {
		return false, err
	}
	return true, nil
}

// Close implements Iter.
func (s *PathIndexScan) Close() error { return nil }

// Batched implements BatchIter (nil-Exec guarded like every batch operator).
func (s *PathIndexScan) Batched() bool { return s.Batch && s.Ex != nil }

// NextBatch implements BatchIter.
func (s *PathIndexScan) NextBatch(out []dom.Node) (int, error) {
	doc := s.Ex.CtxDoc
	n := 0
	for n < len(out) && s.idx < len(s.IDs) {
		out[n] = dom.Node{Doc: doc, ID: s.IDs[s.idx]}
		n++
		s.idx++
	}
	if n > 0 {
		s.Ex.Stats.Tuples += int64(n)
		if err := s.Ex.Gov.Tuples(s.Ex.Stats.Tuples); err != nil {
			return 0, err
		}
	}
	return n, nil
}
