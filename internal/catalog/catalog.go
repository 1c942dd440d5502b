// Package catalog manages a named collection of documents for the query
// service: in-memory documents parsed once and shared, and store-backed
// documents dispensed as per-goroutine handles (a *store.Doc's buffer
// manager is unsynchronized, so one handle must never serve two concurrent
// queries).
//
// Every Acquire pins a generation of a document and every Release unpins
// it; Reload installs a new generation immediately but closes the old one
// only after its last handle is released, so a reload can never unmap pages
// out from under a running query — the buffer frames a query pinned stay
// valid through the store handle it holds, and the handle stays open until
// the refcount drains.
package catalog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"natix/internal/dom"
	"natix/internal/metrics"
	"natix/internal/store"
)

// Catalog metrics, on the process-wide default registry.
var (
	mDocs        = metrics.Default.Gauge("natix_catalog_documents", "Documents currently registered in the catalog.")
	mAcquires    = metrics.Default.Counter("natix_catalog_acquires_total", "Document handles acquired.")
	mReloads     = metrics.Default.Counter("natix_catalog_reloads_total", "Document reloads.")
	mHandleOpens = metrics.Default.Counter("natix_catalog_store_handles_total", "Store handles opened (pool misses).")
	mRetired     = metrics.Default.Gauge("natix_catalog_retired_generations", "Superseded generations still pinned by in-flight queries.")
)

// Backend names a document's storage backend.
type Backend string

// The backends.
const (
	// Mem is an in-memory document (dom.MemDoc): immutable after parse and
	// shared by all concurrent readers.
	Mem Backend = "mem"
	// Store is a page-backed store file: handles are pooled because one
	// handle is single-threaded.
	Store Backend = "store"
)

// Info describes one catalog entry, for listings.
type Info struct {
	Name       string  `json:"name"`
	Backend    Backend `json:"backend"`
	Path       string  `json:"path,omitempty"`
	Generation uint64  `json:"generation"`
	Nodes      int     `json:"nodes"`
	// Refs counts handles currently acquired against the live generation.
	Refs int `json:"refs"`
	// Retired counts superseded generations still pinned by queries.
	Retired int `json:"retired_generations,omitempty"`
}

// generation is one loaded incarnation of a document. Exactly one of mem /
// the store fields is populated.
type generation struct {
	gen  uint64
	refs int

	mem *dom.MemDoc

	path string
	opt  store.Options
	// src is the store handle opened when the generation loaded. It owns
	// the generation's open file, and pool misses clone it, so every handle
	// of the generation reads the file it loaded: never the path, which a
	// rename may already point at the next generation's image. The file
	// closes when the generation retires.
	src     *store.Doc
	pool    []*store.Doc // idle store handles (src and clones), ready to check out
	retired bool         // superseded by a reload; close when refs == 0

	nodes int // node count, captured at load for listings
}

// closeAll drops the idle handles and closes the generation's file (only
// src owns it; clones close nothing). Caller holds the entry lock.
func (g *generation) closeAll() {
	if g.src != nil {
		g.src.Close()
	}
	g.pool = nil
}

// entry is one named document: the live generation plus any retired
// generations still pinned by in-flight queries.
type entry struct {
	mu      sync.Mutex
	name    string
	backend Backend
	live    *generation
	old     []*generation
}

// ReloadPoint names one step of Reload, for fault injection.
type ReloadPoint string

// The reload points, in execution order.
const (
	// ReloadOpen: before the backing file is opened/read.
	ReloadOpen ReloadPoint = "open"
	// ReloadLoad: after the new generation loaded, before installation —
	// an error here must drop the loaded generation without leaking
	// handles and leave the previous generation serving.
	ReloadLoad ReloadPoint = "load"
	// ReloadInstall: under the entry lock, immediately before the live
	// generation is swapped.
	ReloadInstall ReloadPoint = "install"
)

// Catalog is a concurrent-safe named document collection. The zero value is
// unusable; use New.
type Catalog struct {
	mu   sync.Mutex
	docs map[string]*entry

	// ReloadHook, when non-nil, is consulted at each named point of every
	// Reload; a non-nil return is injected as that step's failure. Chaos
	// tests use it to prove a failed reload leaves the previous generation
	// serving with balanced refcounts. Set before serving traffic.
	ReloadHook func(name string, point ReloadPoint) error

	// OpenHook, when non-nil, replaces store.Open for store-backed
	// documents (initial open and reloads; pool misses clone the handle it
	// returned, so they read through the same wrapper) — chaos tests wrap
	// the file in a store.FaultReader. Set before serving traffic.
	OpenHook func(path string, opt store.Options) (*store.Doc, error)
}

// openStore opens a store handle through OpenHook when set.
func (c *Catalog) openStore(path string, opt store.Options) (*store.Doc, error) {
	if c.OpenHook != nil {
		return c.OpenHook(path, opt)
	}
	return store.Open(path, opt)
}

// reloadAt runs the reload fault hook for one point.
func (c *Catalog) reloadAt(name string, p ReloadPoint) error {
	if c.ReloadHook != nil {
		if err := c.ReloadHook(name, p); err != nil {
			return fmt.Errorf("catalog: reload %q at %s: %w", name, p, err)
		}
	}
	return nil
}

// New returns an empty catalog.
func New() *Catalog { return &Catalog{docs: map[string]*entry{}} }

// Handle is one pinned acquisition of a document generation. The Doc is
// valid until Release; for store backends it is exclusively owned by the
// holder until then.
type Handle struct {
	// Doc is the navigational document. For Mem backends it is shared with
	// every other holder (immutable, safe); for Store backends it is an
	// exclusively checked-out *store.Doc.
	Doc dom.Document
	// Name is the catalog name the handle was acquired under.
	Name string
	// Generation identifies the loaded incarnation; results depend on it.
	Generation uint64

	e    *entry
	g    *generation
	sd   *store.Doc // non-nil for store backends
	once sync.Once
}

// Release unpins the handle. Store handles return to the generation's pool
// (or are dropped if the generation was retired); the last release of a
// retired generation closes its file. Release is idempotent.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.e.mu.Lock()
		defer h.e.mu.Unlock()
		g := h.g
		g.refs--
		if h.sd != nil {
			// Drop the record cache's pinned page before parking the
			// handle: an idle handle must hold no buffer pins.
			h.sd.ReleaseRecordCache()
			if !g.retired {
				g.pool = append(g.pool, h.sd)
			}
		}
		if g.retired && g.refs == 0 {
			g.closeAll()
			for i, og := range h.e.old {
				if og == g {
					h.e.old = append(h.e.old[:i], h.e.old[i+1:]...)
					break
				}
			}
			mRetired.Add(-1)
		}
	})
}

// register installs a new entry, failing on duplicate names.
func (c *Catalog) register(name string, backend Backend, g *generation) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.docs[name]; ok {
		return fmt.Errorf("catalog: document %q already open", name)
	}
	g.gen = 1
	c.docs[name] = &entry{name: name, backend: backend, live: g}
	mDocs.Add(1)
	return nil
}

// OpenMem parses an XML document from r and registers it under name.
func (c *Catalog) OpenMem(name string, r io.Reader) error {
	d, err := dom.Parse(r)
	if err != nil {
		return fmt.Errorf("catalog: parse %q: %w", name, err)
	}
	return c.register(name, Mem, &generation{mem: d, nodes: d.NodeCount()})
}

// OpenMemFile parses the XML file at path and registers it under name.
// Reload re-reads the same path.
func (c *Catalog) OpenMemFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	d, err := dom.Parse(f)
	if err != nil {
		return fmt.Errorf("catalog: parse %s: %w", path, err)
	}
	g := &generation{mem: d, path: path, nodes: d.NodeCount()}
	return c.register(name, Mem, g)
}

// OpenMemDoc registers an already-parsed in-memory document under name.
func (c *Catalog) OpenMemDoc(name string, d *dom.MemDoc) error {
	return c.register(name, Mem, &generation{mem: d, nodes: d.NodeCount()})
}

// OpenStore opens the store file at path and registers it under name. One
// handle is opened eagerly to validate the file; further handles are
// cloned from it on demand as concurrent queries check them out.
func (c *Catalog) OpenStore(name, path string, opt store.Options) error {
	sd, err := c.openStore(path, opt)
	if err != nil {
		return err
	}
	mHandleOpens.Inc()
	g := &generation{path: path, opt: opt, src: sd, pool: []*store.Doc{sd}, nodes: sd.NodeCount()}
	if err := c.register(name, Store, g); err != nil {
		sd.Close()
		return err
	}
	return nil
}

// ErrUnknown is wrapped by every lookup of an unregistered name, so
// callers can tell "no such document" from "document exists but its store
// failed" with errors.Is.
var ErrUnknown = errors.New("unknown document")

// lookup finds the entry for name.
func (c *Catalog) lookup(name string) (*entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.docs[name]
	if !ok {
		return nil, fmt.Errorf("catalog: %w %q", ErrUnknown, name)
	}
	return e, nil
}

// Acquire pins the live generation of name and returns a handle whose Doc
// is safe for the calling goroutine until Release.
func (c *Catalog) Acquire(name string) (*Handle, error) {
	e, err := c.lookup(name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.live
	h := &Handle{Name: name, Generation: g.gen, e: e, g: g}
	if e.backend == Mem {
		h.Doc = g.mem
	} else {
		if n := len(g.pool); n > 0 {
			h.sd = g.pool[n-1]
			g.pool = g.pool[:n-1]
		} else {
			h.sd = g.src.Clone()
			mHandleOpens.Inc()
		}
		h.Doc = h.sd
	}
	g.refs++
	if metrics.Enabled() {
		mAcquires.Inc()
	}
	return h, nil
}

// Generation returns the live generation number of name.
func (c *Catalog) Generation(name string) (uint64, error) {
	e, err := c.lookup(name)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.live.gen, nil
}

// Reload replaces the live generation of name by re-reading its source (the
// original path for file-backed documents). In-flight queries keep their
// pinned handles on the old generation, which is closed when its last
// handle is released; new Acquires see the new generation immediately.
// In-memory documents registered from a reader (no path) cannot reload.
//
// For store files, replace the file atomically (write aside, rename over
// the path): handles of the old generation keep reading the old inode
// through their open descriptors. Truncating the file in place corrupts
// in-flight reads on any system, reload or not.
func (c *Catalog) Reload(name string) (uint64, error) {
	e, err := c.lookup(name)
	if err != nil {
		return 0, err
	}

	// Load the new generation outside the entry lock: parsing may be slow
	// and must not block Acquire/Release traffic.
	e.mu.Lock()
	backend, path, opt, oldGen := e.backend, e.live.path, e.live.opt, e.live.gen
	e.mu.Unlock()
	if path == "" {
		return 0, fmt.Errorf("catalog: document %q has no backing path to reload", name)
	}
	if err := c.reloadAt(name, ReloadOpen); err != nil {
		return 0, err
	}
	next := &generation{path: path, opt: opt}
	switch backend {
	case Mem:
		f, err := os.Open(path)
		if err != nil {
			return 0, fmt.Errorf("catalog: reload %q: %w", name, err)
		}
		d, perr := dom.Parse(f)
		f.Close()
		if perr != nil {
			return 0, fmt.Errorf("catalog: reload %q: %w", name, perr)
		}
		next.mem = d
		next.nodes = d.NodeCount()
	case Store:
		sd, err := c.openStore(path, opt)
		if err != nil {
			return 0, fmt.Errorf("catalog: reload %q: %w", name, err)
		}
		mHandleOpens.Inc()
		next.src, next.pool = sd, []*store.Doc{sd}
		next.nodes = sd.NodeCount()
	}
	if err := c.reloadAt(name, ReloadLoad); err != nil {
		next.closeAll()
		return 0, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.reloadAt(name, ReloadInstall); err != nil {
		next.closeAll()
		return 0, err
	}
	if e.live.gen != oldGen {
		// A concurrent reload won; drop our freshly loaded generation.
		next.closeAll()
		return e.live.gen, nil
	}
	old := e.live
	next.gen = old.gen + 1
	e.live = next
	old.retired = true
	if old.refs == 0 {
		old.closeAll()
	} else {
		e.old = append(e.old, old)
		mRetired.Add(1)
	}
	mReloads.Inc()
	return next.gen, nil
}

// Close removes name from the catalog. The live generation closes when its
// refcount drains (immediately if idle); retired generations already follow
// that rule.
func (c *Catalog) Close(name string) error {
	c.mu.Lock()
	e, ok := c.docs[name]
	if ok {
		delete(c.docs, name)
		mDocs.Add(-1)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("catalog: unknown document %q", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.live.retired = true
	if e.live.refs == 0 {
		e.live.closeAll()
	} else {
		e.old = append(e.old, e.live)
		mRetired.Add(1)
	}
	return nil
}

// CloseAll removes every document.
func (c *Catalog) CloseAll() {
	c.mu.Lock()
	names := make([]string, 0, len(c.docs))
	for n := range c.docs {
		names = append(names, n)
	}
	c.mu.Unlock()
	for _, n := range names {
		c.Close(n)
	}
}

// List describes every registered document, sorted by name.
func (c *Catalog) List() []Info {
	c.mu.Lock()
	entries := make([]*entry, 0, len(c.docs))
	for _, e := range c.docs {
		entries = append(entries, e)
	}
	c.mu.Unlock()
	infos := make([]Info, 0, len(entries))
	for _, e := range entries {
		e.mu.Lock()
		info := Info{
			Name:       e.name,
			Backend:    e.backend,
			Path:       e.live.path,
			Generation: e.live.gen,
			Refs:       e.live.refs,
			Retired:    len(e.old),
			Nodes:      e.live.nodes,
		}
		e.mu.Unlock()
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}
