package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"natix/internal/dom"
	"natix/internal/pathindex"
)

// TestPathIndexPersisted asserts a v3 file carries a decodable index whose
// content equals a fresh build over the same document, and that the decode
// path (not a rebuild) serves it: corrupting a node record page after the
// header is read must not affect the index load.
func TestPathIndexPersisted(t *testing.T) {
	mem, err := dom.ParseString(storeSample)
	if err != nil {
		t.Fatal(err)
	}
	want := pathindex.Build(mem).Encode()

	var buf bytes.Buffer
	if err := WriteTo(&buf, mem); err != nil {
		t.Fatal(err)
	}
	d, err := OpenReaderAt(bytes.NewReader(buf.Bytes()), Options{BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.h.version != FormatVersion || d.h.indexBytes == 0 {
		t.Fatalf("v%d file with indexBytes=%d; want v%d with a persisted index",
			d.h.version, d.h.indexBytes, FormatVersion)
	}
	ix := d.PathIndex()
	if ix == nil {
		t.Fatal("PathIndex() = nil on a clean v3 file")
	}
	if !bytes.Equal(ix.Encode(), want) {
		t.Fatal("persisted index differs from a fresh build")
	}
	if again := d.PathIndex(); again != ix {
		t.Fatal("PathIndex not cached on the handle")
	}
}

// TestPathIndexOldFormatsRebuild opens v1 and v2 images (no index pages)
// and expects a traversal-built index identical to the mem build.
func TestPathIndexOldFormatsRebuild(t *testing.T) {
	mem, err := dom.ParseString(storeSample)
	if err != nil {
		t.Fatal(err)
	}
	want := pathindex.Build(mem).Encode()
	for _, version := range []int{1, 2} {
		var buf bytes.Buffer
		if err := writeDoc(&buf, mem, DefaultPageSize, version); err != nil {
			t.Fatalf("write v%d: %v", version, err)
		}
		d, err := OpenReaderAt(bytes.NewReader(buf.Bytes()), Options{BufferPages: 4})
		if err != nil {
			t.Fatalf("open v%d: %v", version, err)
		}
		if d.h.indexBytes != 0 {
			t.Fatalf("v%d file claims index pages", version)
		}
		ix := d.PathIndex()
		if ix == nil {
			t.Fatalf("v%d: no rebuilt index", version)
		}
		if !bytes.Equal(ix.Encode(), want) {
			t.Fatalf("v%d: rebuilt index differs", version)
		}
		if d.Err() != nil {
			t.Fatalf("v%d: rebuild faulted: %v", version, d.Err())
		}
	}
}

// TestPathIndexFaultedDocYieldsNil: once the document carries a sticky
// fault, PathIndex must refuse to build (a traversal over nil links would
// produce a confidently wrong index).
func TestPathIndexFaultedDocYieldsNil(t *testing.T) {
	mem, err := dom.ParseString(storeSample)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeDoc(&buf, mem, DefaultPageSize, 2); err != nil {
		t.Fatal(err)
	}
	fr := &FaultReader{R: bytes.NewReader(buf.Bytes())}
	d, err := OpenReaderAt(fr, Options{BufferPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	fr.Arm()
	for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
		d.Kind(id) // trip the injected fault
	}
	if d.Err() == nil {
		t.Skip("fault did not trip (fully cached); nothing to assert")
	}
	if ix := d.PathIndex(); ix != nil {
		t.Fatal("PathIndex built an index over a faulted document")
	}
}

// TestPathIndexSurvivesUpdateReopen: value updates (which may grow the
// text tail) must leave the index pages intact — a verifying reopen still
// decodes them and they still describe the structure.
func TestPathIndexSurvivesUpdateReopen(t *testing.T) {
	mem, err := dom.ParseString(storeSample)
	if err != nil {
		t.Fatal(err)
	}
	want := pathindex.Build(mem).Encode()
	path := t.TempDir() + "/doc.natix"
	if err := Write(path, mem); err != nil {
		t.Fatal(err)
	}
	u, err := OpenUpdatable(path, Options{BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	var textID dom.NodeID
	for id := dom.NodeID(1); int(id) <= u.Doc().NodeCount(); id++ {
		if u.Doc().Kind(id) == dom.KindText {
			textID = id
			break
		}
	}
	long := make([]byte, 3*DefaultPageSize) // force text-tail growth past EOF
	for i := range long {
		long[i] = 'x'
	}
	tx := u.Begin()
	if err := tx.SetValue(textID, string(long)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	u.Close()

	d, err := Open(path, Options{BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ix := d.PathIndex()
	if ix == nil || d.Err() != nil {
		t.Fatalf("index lost after update (ix=%v, err=%v)", ix != nil, d.Err())
	}
	if !bytes.Equal(ix.Encode(), want) {
		t.Fatal("index content changed across a value update")
	}
}

// TestCloneSharesPersistedIndex: clones of an image share its decoded index
// pages, and with them the match memo, whichever handle asks first; they
// never decode the pages again. That holds for pages carrying a version-1
// index blob too.
func TestCloneSharesPersistedIndex(t *testing.T) {
	mem, err := dom.ParseString(storeSample)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTo(&buf, mem); err != nil {
		t.Fatal(err)
	}
	d, err := OpenReaderAt(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	early := d.Clone() // exists before any handle resolved the index
	ix := d.PathIndex()
	if ix == nil {
		t.Fatal("PathIndex() = nil on a clean v3 file")
	}
	late := d.Clone()
	for name, c := range map[string]*Doc{"early clone": early, "late clone": late} {
		misses := c.BufferStats().Misses
		if got := c.PathIndex(); got != ix {
			t.Errorf("%s: PathIndex() = %p, original's is %p", name, got, ix)
		}
		if c.BufferStats().Misses != misses {
			t.Errorf("%s re-read the index pages", name)
		}
	}

	// The first handle to ask decodes for all of them.
	d2, err := OpenReaderAt(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := d2.Clone()
	if ix2 := c2.PathIndex(); ix2 == nil || d2.PathIndex() != ix2 || ix2 == ix {
		t.Fatal("a clone's decode is not shared with its original alone")
	}

	// An image whose index pages carry a version-1 blob (with the per-node
	// interval arrays that version 2 dropped) takes the same shared decode
	// path, not a rebuild per handle. testdata/v3-nxpi1.natix is storeSample
	// written at MinPageSize by the last writer of version-1 blobs; it is a
	// fixed artifact, never regenerated.
	old, err := os.ReadFile("testdata/v3-nxpi1.natix")
	if err != nil {
		t.Fatal(err)
	}
	d3, err := OpenReaderAt(bytes.NewReader(old), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d3.h.version != 3 || d3.h.indexBytes == 0 {
		t.Fatalf("fixture is v%d with indexBytes=%d; want v3 with index pages", d3.h.version, d3.h.indexBytes)
	}
	probe := d3.Clone()
	blob, err := probe.buf.readStream(probe.h.indexStart, 0, int(probe.h.indexBytes))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != 1 {
		t.Fatalf("fixture carries an index blob of version %d, want 1", v)
	}
	c3 := d3.Clone()
	ix3 := c3.PathIndex()
	if ix3 == nil || d3.persisted.ix != ix3 {
		t.Fatal("the version-1 blob was not decoded (rebuilt or absent)")
	}
	misses := d3.BufferStats().Misses
	if d3.PathIndex() != ix3 || d3.BufferStats().Misses != misses {
		t.Fatal("the version-1 decode is not shared with the original handle")
	}
	if !bytes.Equal(ix3.Encode(), pathindex.Build(mem).Encode()) {
		t.Fatal("the version-1 blob decodes to a different summary than a fresh build")
	}
}
