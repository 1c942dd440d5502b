package store

import (
	"fmt"
	"io"

	"natix/internal/metrics"
)

// Process-wide buffer metrics, aggregated across all open stores. Updates
// are gated on metrics.Enabled() so the page-access fast path stays at one
// atomic load when observability is off.
var (
	mBufHits      = metrics.Default.Counter("natix_buffer_hits_total", "Page requests satisfied from the buffer pool.")
	mBufMisses    = metrics.Default.Counter("natix_buffer_misses_total", "Page requests that faulted in from the file.")
	mBufEvictions = metrics.Default.Counter("natix_buffer_evictions_total", "Frames reclaimed from the LRU list.")
	mBufPins      = metrics.Default.Gauge("natix_buffer_pinned_frames", "Frames currently pinned across open stores.")
)

// BufferStats counts buffer manager events.
type BufferStats struct {
	// Hits are page requests satisfied from the buffer.
	Hits int64
	// Misses are page requests that had to read from the file.
	Misses int64
	// Evictions counts frames reclaimed from the LRU list.
	Evictions int64
}

// frame is one buffered page.
type frame struct {
	page uint32
	data []byte
	pins int
	// LRU list links; only unpinned frames are on the list.
	prev, next *frame
}

// buffer is the page buffer manager: a fixed number of page frames with an
// LRU replacement policy over unpinned frames (paper section 5.2.2: "the
// persistent representation of the documents in the Natix page buffer").
type buffer struct {
	file     io.ReaderAt
	pageSize int
	// usable is the data bytes per page (pageSize minus the checksum
	// trailer under format version 2); stream offsets address the
	// concatenation of usable prefixes.
	usable   int
	capacity int
	// verify enables per-page checksum verification on every fault-in.
	verify bool

	frames map[uint32]*frame
	// lruHead/lruTail delimit the unpinned LRU list; head is most recent.
	lruHead, lruTail *frame
	free             []*frame
	stats            BufferStats
}

func newBuffer(file io.ReaderAt, pageSize, usable, capacity int, verify bool) *buffer {
	// At least two frames: the document keeps one record page pinned, and
	// text reads need a second frame.
	if capacity < 2 {
		capacity = 2
	}
	b := &buffer{
		file:     file,
		pageSize: pageSize,
		usable:   usable,
		capacity: capacity,
		verify:   verify,
		frames:   make(map[uint32]*frame, capacity),
	}
	return b
}

// fix pins the page into the buffer and returns its frame. The caller must
// unfix it; pins are short (one accessor call).
func (b *buffer) fix(page uint32) (*frame, error) {
	if f, ok := b.frames[page]; ok {
		b.stats.Hits++
		if metrics.Enabled() {
			mBufHits.Inc()
			mBufPins.Add(1)
		}
		if f.pins == 0 {
			b.lruRemove(f)
		}
		f.pins++
		return f, nil
	}
	b.stats.Misses++
	if metrics.Enabled() {
		mBufMisses.Inc()
	}
	f, err := b.victim()
	if err != nil {
		return nil, err
	}
	n, err := b.file.ReadAt(f.data, int64(page)*int64(b.pageSize))
	if err != nil && (err != io.EOF || n == 0) {
		b.free = append(b.free, f)
		return nil, fmt.Errorf("store: read page %d: %w", page, err)
	}
	for i := n; i < len(f.data); i++ {
		f.data[i] = 0 // final partial page
	}
	if b.verify && !verifyPage(f.data) {
		b.free = append(b.free, f)
		return nil, fmt.Errorf("store: checksum mismatch on page %d", page)
	}
	f.page = page
	f.pins = 1
	b.frames[page] = f
	if metrics.Enabled() {
		mBufPins.Add(1)
	}
	return f, nil
}

// unfix releases one pin; at zero pins the frame joins the LRU list.
func (b *buffer) unfix(f *frame) {
	f.pins--
	if metrics.Enabled() {
		mBufPins.Add(-1)
	}
	if f.pins == 0 {
		b.lruPush(f)
	}
}

// victim produces an empty frame: from the free pool, by allocation while
// under capacity, or by evicting the least recently used unpinned frame.
func (b *buffer) victim() (*frame, error) {
	if n := len(b.free); n > 0 {
		f := b.free[n-1]
		b.free = b.free[:n-1]
		return f, nil
	}
	if len(b.frames) < b.capacity {
		return &frame{data: make([]byte, b.pageSize)}, nil
	}
	f := b.lruTail
	if f == nil {
		return nil, fmt.Errorf("store: buffer exhausted (all %d frames pinned)", b.capacity)
	}
	b.lruRemove(f)
	delete(b.frames, f.page)
	b.stats.Evictions++
	if metrics.Enabled() {
		mBufEvictions.Inc()
	}
	return f, nil
}

func (b *buffer) lruPush(f *frame) {
	f.prev = nil
	f.next = b.lruHead
	if b.lruHead != nil {
		b.lruHead.prev = f
	}
	b.lruHead = f
	if b.lruTail == nil {
		b.lruTail = f
	}
}

func (b *buffer) lruRemove(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		b.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		b.lruTail = f.prev
	}
	f.prev, f.next = nil, nil
}

// eachChunk walks the length bytes starting at byte offset off of the stream
// beginning at startPage in place, one page at a time: it fixes the page,
// hands fn the span's bytes on it (f.data[a:b], valid only during the call),
// and unfixes the page before moving on. The stream is the concatenation of
// the pages' usable prefixes. fn returns false to stop the walk early.
func (b *buffer) eachChunk(startPage uint32, off uint64, length int, fn func([]byte) bool) error {
	for length > 0 {
		page := startPage + uint32(off/uint64(b.usable))
		inPage := int(off % uint64(b.usable))
		f, err := b.fix(page)
		if err != nil {
			return err
		}
		n := min(b.usable-inPage, length)
		more := fn(f.data[inPage : inPage+n])
		b.unfix(f)
		if !more {
			return nil
		}
		off += uint64(n)
		length -= n
	}
	return nil
}

// readStream copies length bytes of a stream (see eachChunk) into a fresh
// slice.
func (b *buffer) readStream(startPage uint32, off uint64, length int) ([]byte, error) {
	out := make([]byte, 0, length)
	err := b.eachChunk(startPage, off, length, func(c []byte) bool {
		out = append(out, c...)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pinned counts frames with at least one pin (leak accounting).
func (b *buffer) pinned() int {
	n := 0
	for _, f := range b.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}
