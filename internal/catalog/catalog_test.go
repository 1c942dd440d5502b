package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"natix/internal/dom"
	"natix/internal/store"
)

func writeXMLFile(t *testing.T, xml string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeStoreFile(t *testing.T, xml string) string {
	t.Helper()
	mem, err := dom.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.natix")
	if err := store.Write(path, mem); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenAcquireRelease(t *testing.T) {
	c := New()
	if err := c.OpenMem("a", strings.NewReader("<r><x/></r>")); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenMem("a", strings.NewReader("<r/>")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	h, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if h.Generation != 1 || h.Doc == nil {
		t.Fatalf("handle: gen=%d doc=%v", h.Generation, h.Doc)
	}
	if _, err := c.Acquire("nope"); err == nil {
		t.Fatal("unknown document accepted")
	}
	infos := c.List()
	if len(infos) != 1 || infos[0].Refs != 1 || infos[0].Backend != Mem {
		t.Fatalf("List = %+v", infos)
	}
	h.Release()
	h.Release() // idempotent
	if infos := c.List(); infos[0].Refs != 0 {
		t.Fatalf("refs after release = %d", infos[0].Refs)
	}
}

func TestStoreHandlePooling(t *testing.T) {
	path := writeStoreFile(t, "<r><x>1</x><x>2</x></r>")
	c := New()
	if err := c.OpenStore("s", path, store.Options{BufferPages: 8}); err != nil {
		t.Fatal(err)
	}
	// Two concurrent acquires must get distinct store handles.
	h1, err := c.Acquire("s")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Acquire("s")
	if err != nil {
		t.Fatal(err)
	}
	if h1.Doc == h2.Doc {
		t.Fatal("two concurrent store acquires shared one handle")
	}
	// A released handle is pooled and reused.
	d1 := h1.Doc
	h1.Release()
	h3, err := c.Acquire("s")
	if err != nil {
		t.Fatal(err)
	}
	if h3.Doc != d1 {
		t.Fatal("released handle not reused from the pool")
	}
	// Pooled handles hold no pinned pages.
	h3.Doc.Kind(h3.Doc.Root()) // populate the record cache
	sd := h3.Doc.(*store.Doc)
	h3.Release()
	if n := sd.PinnedPages(); n != 0 {
		t.Fatalf("pooled handle pins %d pages", n)
	}
	h2.Release()
}

func TestReloadDefersCloseUntilDrain(t *testing.T) {
	path := writeStoreFile(t, "<r><x>old</x></r>")
	c := New()
	if err := c.OpenStore("s", path, store.Options{}); err != nil {
		t.Fatal(err)
	}
	h, err := c.Acquire("s")
	if err != nil {
		t.Fatal(err)
	}
	oldDoc := h.Doc

	// Replace the file atomically (write aside, rename over) and reload:
	// new acquires see generation 2, while the outstanding handle keeps
	// reading generation 1 through its open descriptor of the old inode.
	mem, err := dom.ParseString("<r><x>new</x><y/></r>")
	if err != nil {
		t.Fatal(err)
	}
	next := path + ".next"
	if err := store.Write(next, mem); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
	gen, err := c.Reload("s")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("reload generation = %d", gen)
	}
	h2, err := c.Acquire("s")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Generation != 2 {
		t.Fatalf("new acquire generation = %d", h2.Generation)
	}
	if h.Generation != 1 {
		t.Fatalf("old handle generation changed to %d", h.Generation)
	}
	// The retired generation stays navigable until released.
	if got := oldDoc.StringValue(oldDoc.FirstChild(oldDoc.FirstChild(oldDoc.Root()))); got != "old" {
		t.Fatalf("retired generation read %q", got)
	}
	if err := oldDoc.(*store.Doc).Err(); err != nil {
		t.Fatalf("retired generation faulted: %v", err)
	}
	if infos := c.List(); infos[0].Retired != 1 {
		t.Fatalf("List retired = %d", infos[0].Retired)
	}
	h.Release()
	if infos := c.List(); infos[0].Retired != 0 {
		t.Fatalf("retired generation not collected: %+v", infos)
	}
	h2.Release()
}

// renameOver replaces the file at path atomically with a store image of
// xml: the documented way to publish a document's next generation.
func renameOver(t *testing.T, path, xml string) {
	t.Helper()
	mem, err := dom.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	next := path + ".next"
	if err := store.Write(next, mem); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
}

// firstText reads the string value of the root element's first child.
func firstText(d dom.Document) string {
	return d.StringValue(d.FirstChild(d.FirstChild(d.Root())))
}

// TestPoolMissReadsItsGeneration: between the rename of a new image over the
// path and the reload that installs it, a pool miss must still read the
// generation it is labelled with, never the file the path now names. The
// clone shares the generation's open file, which stays open until the last
// handle of the generation is released, whichever handle that is.
func TestPoolMissReadsItsGeneration(t *testing.T) {
	path := writeStoreFile(t, "<r><x>one</x></r>")
	var reads atomic.Int64
	c := New()
	c.OpenHook = func(p string, opt store.Options) (*store.Doc, error) {
		d, _, err := store.OpenFaulty(p, opt, func(int64, int) error {
			reads.Add(1)
			return nil
		})
		return d, err
	}
	if err := c.OpenStore("s", path, store.Options{BufferPages: 4}); err != nil {
		t.Fatal(err)
	}
	h1, err := c.Acquire("s") // the pooled handle
	if err != nil {
		t.Fatal(err)
	}
	renameOver(t, path, "<r><x>two</x></r>")
	h2, err := c.Acquire("s") // a pool miss
	if err != nil {
		t.Fatal(err)
	}
	if h1.Doc == h2.Doc {
		t.Fatal("the pool miss shared the checked-out handle")
	}
	if h1.Generation != 1 || h2.Generation != 1 {
		t.Fatalf("generations = %d, %d, want 1", h1.Generation, h2.Generation)
	}
	if got := firstText(h1.Doc); got != "one" {
		t.Fatalf("pooled handle read %q, want %q", got, "one")
	}

	// Reload, then release the handle that owns the file first. The clone
	// has read nothing yet, so every page it reads now comes from the
	// generation's file, through the OpenHook's reader.
	if _, err := c.Reload("s"); err != nil {
		t.Fatal(err)
	}
	h1.Release()
	before := reads.Load()
	if got := firstText(h2.Doc); got != "one" {
		t.Fatalf("pool miss read %q, want generation 1's %q", got, "one")
	}
	if err := h2.Doc.(*store.Doc).Err(); err != nil {
		t.Fatalf("pool miss faulted: %v", err)
	}
	if reads.Load() == before {
		t.Fatal("the pool miss bypassed the OpenHook's reader")
	}
	h2.Release()
	h3, err := c.Acquire("s")
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Release()
	if h3.Generation != 2 || firstText(h3.Doc) != "two" {
		t.Fatalf("generation %d read %q", h3.Generation, firstText(h3.Doc))
	}
	if infos := c.List(); infos[0].Retired != 0 {
		t.Fatalf("generation 1 not retired: %+v", infos)
	}
}

func TestReloadMemFile(t *testing.T) {
	path := writeXMLFile(t, "<r>one</r>")
	c := New()
	if err := c.OpenMemFile("m", path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("<r>two<x/></r>"), 0o644); err != nil {
		t.Fatal(err)
	}
	gen, err := c.Reload("m")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("gen = %d", gen)
	}
	h, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := h.Doc.StringValue(h.Doc.Root()); got != "two" {
		t.Fatalf("reloaded content = %q", got)
	}
	// Reader-registered documents have no path to reload from.
	if err := c.OpenMem("r", strings.NewReader("<r/>")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reload("r"); err == nil {
		t.Fatal("pathless reload accepted")
	}
}

func TestCloseWaitsForHandles(t *testing.T) {
	path := writeStoreFile(t, "<r><x/></r>")
	c := New()
	if err := c.OpenStore("s", path, store.Options{}); err != nil {
		t.Fatal(err)
	}
	h, err := c.Acquire("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire("s"); err == nil {
		t.Fatal("acquire after close accepted")
	}
	// The outstanding handle still navigates; release closes the doc.
	if h.Doc.Kind(h.Doc.Root()) != dom.KindDocument {
		t.Fatal("handle dead after Close")
	}
	if err := h.Doc.(*store.Doc).Err(); err != nil {
		t.Fatalf("handle faulted after Close: %v", err)
	}
	h.Release()
	if err := c.Close("s"); err == nil {
		t.Fatal("double close accepted")
	}
}

// TestConcurrentAcquireReload hammers one store document with concurrent
// acquire/navigate/release cycles racing periodic reloads; run under -race
// this pins the refcount and pool synchronization.
func TestConcurrentAcquireReload(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&sb, "<x n=\"%d\"/>", i)
	}
	sb.WriteString("</r>")
	path := writeStoreFile(t, sb.String())
	c := New()
	if err := c.OpenStore("s", path, store.Options{BufferPages: 8}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseAll()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				h, err := c.Acquire("s")
				if err != nil {
					errs <- err
					return
				}
				d := h.Doc
				n := 0
				for id := d.FirstChild(d.FirstChild(d.Root())); id != dom.NilNode; id = d.NextSibling(id) {
					n++
				}
				if n != 64 {
					errs <- fmt.Errorf("walked %d children", n)
				}
				h.Release()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 10; r++ {
			if _, err := c.Reload("s"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// After the dust settles every retired generation must have been
	// collected.
	if infos := c.List(); infos[0].Retired != 0 || infos[0].Refs != 0 {
		t.Fatalf("leaked generations: %+v", infos)
	}
}
