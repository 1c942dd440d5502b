package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"natix/internal/dom"
	"natix/internal/pathindex"
)

// Options configure how a store file is opened.
type Options struct {
	// BufferPages is the page buffer capacity (default 256 pages).
	BufferPages int
	// SkipVerify disables per-page checksum verification on format
	// version 2 files. Recovery uses it: redo may read pages torn by the
	// crash it is repairing, and rewrites them checksummed.
	SkipVerify bool
}

// DefaultBufferPages is used when Options leave BufferPages zero.
const DefaultBufferPages = 256

// Doc is a page-backed dom.Document: every navigation call decodes the
// node record from the page buffer, faulting pages in from the file on
// demand. No main-memory tree is ever built (paper section 5.2.2). The
// interned name table is small and loaded eagerly.
//
// Doc is not safe for concurrent use: the buffer manager is unsynchronized,
// matching one-query-at-a-time benchmark execution. Open multiple handles
// for concurrency.
type Doc struct {
	docID uint64
	h     header
	buf   *buffer
	names []string
	file  *os.File // nil when opened over a ReaderAt

	nodesPerPage uint32

	// One-page record cache: consecutive accessors usually decode fields
	// of the same record, so the frame of the last node page stays pinned
	// until a different page is needed (pinned frames are never evicted).
	curPage  uint32
	curFrame *frame

	// err is the sticky fault: the first I/O or checksum error hit after
	// open. The navigation interface returns plain values, so faults are
	// recorded here and collected by the engine's governor (and by a final
	// check before any run reports success) — a faulted read yields nil
	// links, never a wrong answer presented as a correct one.
	err error

	// persisted is the index decoded from the v3 index pages, shared by
	// the handle that opened the image and all its clones. pathIx is this
	// handle's lazily resolved structural index: the persisted one, or a
	// rebuild by traversal for older formats and on any validation
	// failure. pathIxDone makes the resolution once-only (Doc is
	// single-goroutine).
	persisted  *persistedIndex
	pathIx     *pathindex.Index
	pathIxDone bool

	// ids is the image's ElementByID map, shared with every clone.
	ids *idMap
}

// persistedIndex is the decoded index pages of one image. The first handle
// to ask decodes them, through its own buffer; the others, possibly on
// other goroutines, wait for it and share the result, and with it the
// index's match memo.
type persistedIndex struct {
	once sync.Once
	ix   *pathindex.Index // nil: no index pages, or unreadable or invalid
}

// idMap is the ElementByID map of one image, shared like persistedIndex:
// the first handle to ask builds it through its own buffer, the others
// wait and share it. A commit through Updater drops it, so the next lookup
// rebuilds from the committed values.
type idMap struct {
	mu sync.Mutex
	m  map[string]dom.NodeID
}

// drop discards the map; the next lookup rebuilds it.
func (p *idMap) drop() {
	p.mu.Lock()
	p.m = nil
	p.mu.Unlock()
}

var (
	_ dom.Document      = (*Doc)(nil)
	_ dom.InPlaceValues = (*Doc)(nil)
)

// Open opens a store file.
func Open(path string, opt Options) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	d, err := OpenReaderAt(f, opt)
	if err != nil {
		f.Close()
		return nil, err
	}
	d.file = f
	return d, nil
}

// OpenReaderAt opens a store image from any random-access reader.
func OpenReaderAt(r io.ReaderAt, opt Options) (*Doc, error) {
	hdr := make([]byte, headerSize)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("store: read header: %w", err)
	}
	var h header
	if err := h.decode(hdr); err != nil {
		return nil, err
	}
	cap := opt.BufferPages
	if cap == 0 {
		cap = DefaultBufferPages
	}
	verify := h.version >= 2 && !opt.SkipVerify
	d := &Doc{
		docID:        dom.NextDocID(),
		h:            h,
		buf:          newBuffer(r, int(h.pageSize), h.usable(), cap, verify),
		nodesPerPage: uint32(h.usable() / recordSize),
		persisted:    &persistedIndex{},
		ids:          &idMap{},
	}
	if verify {
		// The header was read raw above; verify its page now that the
		// page size is known.
		f, err := d.buf.fix(0)
		if err != nil {
			return nil, err
		}
		d.buf.unfix(f)
	}
	if err := d.loadNames(); err != nil {
		return nil, err
	}
	return d, nil
}

// Clone returns another handle on the same image: it reads through d's
// reader, so it sees the file d opened even after a rename replaced the
// path, but it has its own page buffer, record cache and sticky fault, so
// it can serve another goroutine. It shares d's decoded index pages and ID
// map (and builds them for every handle of the image if it asks first);
// only an index rebuild by traversal is per handle. The clone does not own
// the file: closing it closes nothing, and d must stay open while any clone
// is in use. Clone reads only what Open fixed (header, name table, reader,
// the shared index and ID map), so it may run while d serves another
// goroutine.
func (d *Doc) Clone() *Doc {
	b := d.buf
	return &Doc{
		docID:        dom.NextDocID(),
		h:            d.h,
		buf:          newBuffer(b.file, b.pageSize, b.usable, b.capacity, b.verify),
		names:        d.names,
		nodesPerPage: d.nodesPerPage,
		persisted:    d.persisted,
		ids:          d.ids,
	}
}

// Err returns the sticky fault: the first I/O or corruption error any
// navigation hit since open, nil if none. Callers that consumed navigation
// results must check it before trusting them.
func (d *Doc) Err() error { return d.err }

// setFault records the first navigation fault.
func (d *Doc) setFault(err error) {
	if d.err == nil {
		d.err = err
	}
}

// ClearFault resets the sticky fault (tests recovering from injected
// faults).
func (d *Doc) ClearFault() { d.err = nil }

// PinnedPages returns the number of currently pinned buffer frames. The
// record cache legitimately keeps one page pinned between accessor calls;
// ReleaseRecordCache drops it, after which an idle document must report
// zero.
func (d *Doc) PinnedPages() int { return d.buf.pinned() }

// ReleaseRecordCache unpins the record cache's page (leak accounting in
// tests; the cache re-pins on the next record access).
func (d *Doc) ReleaseRecordCache() { d.dropRecordCache() }

// Close releases the underlying file.
func (d *Doc) Close() error {
	if d.file != nil {
		return d.file.Close()
	}
	return nil
}

// PathIndex implements pathindex.Provider: it returns the document's
// structural index, decoding the persisted index pages of a version-3 file
// (CRC-checked; any mismatch — corruption, version skew, node-count drift —
// falls back to a rebuild by traversal, like opening an older format). The
// result is cached for the life of the handle; a decoded index is shared
// with every clone of the image. A traversal rebuild on a faulted document
// may return nil; callers then keep axis navigation, and the sticky fault
// fails the run through the usual channel.
func (d *Doc) PathIndex() *pathindex.Index {
	if d.pathIxDone {
		return d.pathIx
	}
	d.pathIxDone = true
	if ix := d.decodePersisted(); ix != nil {
		d.pathIx = ix
		return d.pathIx
	}
	// No index pages, or unreadable or invalid ones: the document data
	// itself may be fine, so rebuild instead of surfacing a fault here.
	if d.err != nil {
		// Already-faulted document: a traversal would silently produce a
		// partial index from nil links. Leave the index absent.
		return nil
	}
	ix := pathindex.Build(d)
	if d.err != nil {
		// The rebuild traversal itself faulted; the partial index is
		// untrustworthy. The sticky fault fails the run regardless.
		return nil
	}
	d.pathIx = ix
	return d.pathIx
}

// decodePersisted returns the image's decoded index pages, decoding them
// through d's buffer if no handle of the image has yet.
func (d *Doc) decodePersisted() *pathindex.Index {
	p := d.persisted
	p.once.Do(func() {
		if d.h.version < 3 || d.h.indexBytes == 0 {
			return
		}
		blob, err := d.buf.readStream(d.h.indexStart, 0, int(d.h.indexBytes))
		if err != nil {
			return
		}
		if ix, err := pathindex.Decode(blob, d.NodeCount()); err == nil {
			p.ix = ix
		}
	})
	return p.ix
}

var _ pathindex.Provider = (*Doc)(nil)

// BufferStats returns the buffer manager counters.
func (d *Doc) BufferStats() BufferStats { return d.buf.stats }

// ResetBufferStats zeroes the counters (between benchmark phases).
func (d *Doc) ResetBufferStats() { d.buf.stats = BufferStats{} }

func (d *Doc) loadNames() error {
	data, err := d.buf.readStream(d.h.nameStart, 0, int(d.h.nameBytes))
	if err != nil {
		return err
	}
	if len(data) < 4 {
		return fmt.Errorf("store: truncated name table")
	}
	count := binary.LittleEndian.Uint32(data)
	pos := 4
	d.names = make([]string, 0, count)
	for i := uint32(0); i < count; i++ {
		if pos+4 > len(data) {
			return fmt.Errorf("store: truncated name table entry %d", i)
		}
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if pos+n > len(data) {
			return fmt.Errorf("store: truncated name %d", i)
		}
		d.names = append(d.names, string(data[pos:pos+n]))
		pos += n
	}
	return nil
}

// zeroRecord backs accesses to the nil node and out-of-range ids.
var zeroRecord = make([]byte, recordSize)

// withRecord runs fn on the pinned record of id. The zero id and
// out-of-range ids yield a zero record, making NilNode links uniform.
func (d *Doc) withRecord(id dom.NodeID, fn func(record)) {
	if id == dom.NilNode || uint32(id) > d.h.nodeCount {
		fn(record(zeroRecord))
		return
	}
	idx := uint32(id) - 1
	page := d.h.nodeStart + idx/d.nodesPerPage
	off := int(idx%d.nodesPerPage) * recordSize
	if d.curFrame == nil || d.curPage != page {
		if d.curFrame != nil {
			d.buf.unfix(d.curFrame)
			d.curFrame = nil
		}
		f, err := d.buf.fix(page)
		if err != nil {
			// The file shrank, a page is corrupt, or the medium failed.
			// Record the fault sticky and yield the zero record: the
			// current navigation degrades to nil links (never a wrong
			// answer dressed as a right one), and the engine fails the
			// run when it collects Err.
			d.setFault(err)
			fn(record(zeroRecord))
			return
		}
		d.curPage, d.curFrame = page, f
	}
	fn(record(d.curFrame.data[off : off+recordSize]))
}

// dropRecordCache releases the pinned record page (updates invalidate it).
func (d *Doc) dropRecordCache() {
	if d.curFrame != nil {
		d.buf.unfix(d.curFrame)
		d.curFrame = nil
	}
}

func (d *Doc) recU32(id dom.NodeID, off int) uint32 {
	var v uint32
	d.withRecord(id, func(r record) { v = r.u32(off) })
	return v
}

func (d *Doc) recID(id dom.NodeID, off int) dom.NodeID {
	return dom.NodeID(d.recU32(id, off))
}

// DocID implements dom.Document.
func (d *Doc) DocID() uint64 { return d.docID }

// ElementByID implements dom.Document. The map is built once per image. A
// faulted handle neither builds nor shares one: a traversal over nil links
// would be partial, and the sticky fault fails its run anyway, so it
// resolves nothing and a healthy handle builds the map later.
func (d *Doc) ElementByID(s string) dom.NodeID {
	p := d.ids
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		if d.err != nil {
			return dom.NilNode
		}
		m := dom.BuildIDMap(d)
		if d.err != nil {
			return dom.NilNode
		}
		p.m = m
	}
	return p.m[s]
}

// Root implements dom.Document.
func (d *Doc) Root() dom.NodeID { return 1 }

// NodeCount implements dom.Document.
func (d *Doc) NodeCount() int { return int(d.h.nodeCount) }

// Kind implements dom.Document.
func (d *Doc) Kind(id dom.NodeID) dom.NodeKind {
	var k dom.NodeKind
	d.withRecord(id, func(r record) { k = r.kind() })
	return k
}

// LocalName implements dom.Document.
func (d *Doc) LocalName(id dom.NodeID) string { return d.names[d.recU32(id, offLocal)] }

// Prefix implements dom.Document.
func (d *Doc) Prefix(id dom.NodeID) string { return d.names[d.recU32(id, offPrefix)] }

// NamespaceURI implements dom.Document.
func (d *Doc) NamespaceURI(id dom.NodeID) string { return d.names[d.recU32(id, offURI)] }

// valueSpan returns the text-segment window of id's value.
func (d *Doc) valueSpan(id dom.NodeID) (off uint64, n int) {
	d.withRecord(id, func(r record) { off, n = r.valueOff(), int(r.valueLen()) })
	return off, n
}

// Value implements dom.Document. The string is built straight from the text
// page(s): one allocation.
func (d *Doc) Value(id dom.NodeID) string {
	off, n := d.valueSpan(id)
	if n == 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(n)
	if err := d.buf.eachChunk(d.h.textStart, off, n, func(c []byte) bool {
		sb.Write(c)
		return true
	}); err != nil {
		d.setFault(err)
		return ""
	}
	return sb.String()
}

// ValueLen implements dom.InPlaceValues from the node record alone.
func (d *Doc) ValueLen(id dom.NodeID) int {
	_, n := d.valueSpan(id)
	return n
}

// ValueEquals implements dom.InPlaceValues: it compares on the text pages
// themselves, after checking the record's length, so a length mismatch never
// fixes a text page. A failed fix records the sticky fault and reports "not
// equal".
func (d *Doc) ValueEquals(id dom.NodeID, s string) bool {
	off, n := d.valueSpan(id)
	if n != len(s) {
		return false
	}
	eq := true
	if err := d.buf.eachChunk(d.h.textStart, off, n, func(c []byte) bool {
		eq = string(c) == s[:len(c)]
		s = s[len(c):]
		return eq
	}); err != nil {
		d.setFault(err)
		return false
	}
	return eq
}

// Parent implements dom.Document.
func (d *Doc) Parent(id dom.NodeID) dom.NodeID { return d.recID(id, offParent) }

// FirstChild implements dom.Document.
func (d *Doc) FirstChild(id dom.NodeID) dom.NodeID { return d.recID(id, offFirstChild) }

// LastChild implements dom.Document.
func (d *Doc) LastChild(id dom.NodeID) dom.NodeID { return d.recID(id, offLastChild) }

// NextSibling implements dom.Document.
func (d *Doc) NextSibling(id dom.NodeID) dom.NodeID { return d.recID(id, offNextSib) }

// PrevSibling implements dom.Document.
func (d *Doc) PrevSibling(id dom.NodeID) dom.NodeID { return d.recID(id, offPrevSib) }

// FirstAttr implements dom.Document.
func (d *Doc) FirstAttr(id dom.NodeID) dom.NodeID { return d.recID(id, offFirstAttr) }

// NextAttr implements dom.Document.
func (d *Doc) NextAttr(id dom.NodeID) dom.NodeID { return d.recID(id, offNextAttr) }

// FirstNSDecl implements dom.Document.
func (d *Doc) FirstNSDecl(id dom.NodeID) dom.NodeID { return d.recID(id, offFirstNS) }

// NextNSDecl implements dom.Document.
func (d *Doc) NextNSDecl(id dom.NodeID) dom.NodeID { return d.recID(id, offNextNS) }

// StringValue implements dom.Document.
func (d *Doc) StringValue(id dom.NodeID) string {
	switch d.Kind(id) {
	case dom.KindDocument, dom.KindElement:
		return dom.ElementStringValue(d, id)
	default:
		return d.Value(id)
	}
}
