package dom

// Visited is a node set of one document, consulted by a visited-set walk
// (Stepper.ResetVisited). Bits live in leaves of at most 4 KiB (32768
// nodes) allocated on first mark, and Reset clears only the words marked
// since the previous Reset, so neither a first use nor a re-use costs in
// proportion to the size of the document.
type Visited struct {
	leaves  [][]uint64
	words   int      // leaf length in words
	touched []uint32 // indexes (id >> 6) of the words set since Reset
	bytes   int64    // directory and leaves allocated
	charged int64    // part of Bytes already reported by Uncharged
}

const (
	leafShift = 15
	leafWords = 1 << (leafShift - 6)
)

// NewVisited returns an empty set sized for the nodes of doc.
func NewVisited(doc Document) *Visited {
	n := doc.NodeCount() + 1
	words := min(leafWords, n>>6+1)
	v := &Visited{
		leaves:  make([][]uint64, n>>leafShift+1),
		words:   words,
		touched: make([]uint32, 0, words),
	}
	v.bytes = int64(len(v.leaves)) * 24
	return v
}

// Has reports whether id is in the set.
func (v *Visited) Has(id NodeID) bool {
	l := v.leaves[id>>leafShift]
	w := int(id>>6) & (leafWords - 1)
	return w < len(l) && l[w]&(1<<(id&63)) != 0
}

// Mark adds id to the set.
func (v *Visited) Mark(id NodeID) {
	l := v.leaves[id>>leafShift]
	if l == nil {
		l = make([]uint64, v.words)
		v.leaves[id>>leafShift] = l
		v.bytes += int64(v.words) * 8
	}
	w := &l[int(id>>6)&(leafWords-1)]
	if *w == 0 {
		v.touched = append(v.touched, uint32(id>>6))
	}
	*w |= 1 << (id & 63)
}

// Reset empties the set, keeping its leaves for re-use.
func (v *Visited) Reset() {
	for _, w := range v.touched {
		v.leaves[w>>(leafShift-6)][w&(leafWords-1)] = 0
	}
	v.touched = v.touched[:0]
	v.charged = 0
}

// Bytes returns the memory the set holds: its leaf directory, the leaves
// allocated so far and the touched-word list.
func (v *Visited) Bytes() int64 { return v.bytes + int64(cap(v.touched))*4 }

// Uncharged returns the bytes Bytes has grown by since the last call or
// Reset, for callers that charge the set against a memory budget: after a
// Reset the whole retained set counts as new again.
func (v *Visited) Uncharged() int64 {
	b := v.Bytes()
	d := b - v.charged
	v.charged = b
	return d
}
