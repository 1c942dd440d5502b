package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"natix/internal/dom"
)

// This file implements the "recoverable, updatable form" of paper section
// 5.2.2 for the value dimension: transactional updates of text, attribute,
// comment and processing-instruction content, protected by a write-ahead
// log with redo recovery. New content is appended to the text segment (the
// final section of the file), so node records and document order are
// untouched. Structural updates (insert/delete of nodes) are out of scope:
// they would require order keys instead of document-ordered record IDs
// (see DESIGN.md).

// walSuffix names the write-ahead log next to the store file.
const walSuffix = ".wal"

// WAL record kinds.
const (
	walUpdate byte = 1
	walCommit byte = 2
)

// CommitPoint names one step of the commit pipeline, in order. Fault
// injection and crash tests key on them.
type CommitPoint string

// The commit pipeline points, in execution order.
const (
	// PointWALWrite: before the transaction image is appended to the log.
	PointWALWrite CommitPoint = "wal_write"
	// PointWALSync: after the append, before the log fsync. A crash here
	// may leave a torn (unsynced) tail that recovery must discard.
	PointWALSync CommitPoint = "wal_sync"
	// PointApply: after the log fsync — the transaction is durable — before
	// any store page is touched. A crash here must redo from the log.
	PointApply CommitPoint = "apply"
	// PointPageWrite: before each individual page write of the apply phase
	// (a crash mid-apply tears the store; redo must repair it).
	PointPageWrite CommitPoint = "page_write"
	// PointStoreSync: after the apply, before the store fsync.
	PointStoreSync CommitPoint = "store_sync"
	// PointCheckpoint: before the log truncation. A crash here redoes an
	// already-applied transaction (apply is idempotent).
	PointCheckpoint CommitPoint = "checkpoint"
)

// CommitHooks injects failures into the updater's durability pipeline. All
// fields are optional. Tests use OnPoint to return injected write/fsync
// errors (Commit surfaces them) or to SIGKILL the process at a chosen point
// (crash harness); TrimWAL simulates a torn append by shortening the
// transaction image that reaches the log.
type CommitHooks struct {
	// OnPoint is called at each pipeline point; a non-nil return is
	// injected as that step's failure.
	OnPoint func(p CommitPoint) error
	// TrimWAL may shorten (or empty) the encoded transaction image before
	// it is written — a torn append. The trimmed image is still written,
	// then Commit fails with ErrTornWAL.
	TrimWAL func(payload []byte) []byte
}

// ErrTornWAL is returned by Commit when CommitHooks.TrimWAL tore the
// transaction image: the log holds a partial record recovery must discard.
var ErrTornWAL = errors.New("store: injected torn WAL append")

// Updater provides transactional value updates on a store file. One
// Updater owns the file exclusively; its Doc() view reflects committed
// state. Not safe for concurrent use.
type Updater struct {
	path string
	file *os.File
	doc  *Doc

	// Hooks, when non-nil, injects faults into Commit (never into
	// recovery, which repairs what the injected crash left behind).
	Hooks *CommitHooks
}

// at runs the OnPoint hook for p, if any.
func (u *Updater) at(p CommitPoint) error {
	if u.Hooks != nil && u.Hooks.OnPoint != nil {
		return u.Hooks.OnPoint(p)
	}
	return nil
}

// OpenUpdatable opens a store file for reading and updating, first
// recovering any committed-but-unapplied transactions from the write-ahead
// log.
func OpenUpdatable(path string, opt Options) (*Updater, error) {
	if err := Recover(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("store: open updatable %s: %w", path, err)
	}
	doc, err := OpenReaderAt(f, opt)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Updater{path: path, file: f, doc: doc}, nil
}

// Doc returns the navigable view of the current committed state.
func (u *Updater) Doc() *Doc { return u.doc }

// Close releases the file.
func (u *Updater) Close() error { return u.file.Close() }

// Tx is one update transaction: a batch of value updates that becomes
// durable atomically at Commit.
type Tx struct {
	u       *Updater
	updates []valueUpdate
	nextOff uint64 // text-segment offset for the next appended value
	done    bool
}

type valueUpdate struct {
	node  dom.NodeID
	off   uint64
	value []byte
}

// Begin starts a transaction.
func (u *Updater) Begin() *Tx {
	return &Tx{u: u, nextOff: u.doc.h.textBytes}
}

// SetValue stages a new content value for a text, attribute, comment or
// processing-instruction node.
func (tx *Tx) SetValue(id dom.NodeID, value string) error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	d := tx.u.doc
	if id == dom.NilNode || uint32(id) > d.h.nodeCount {
		return fmt.Errorf("store: no node #%d", id)
	}
	switch d.Kind(id) {
	case dom.KindText, dom.KindAttribute, dom.KindComment, dom.KindProcInstr, dom.KindNamespace:
	default:
		return fmt.Errorf("store: cannot set the value of a %s node", d.Kind(id))
	}
	tx.updates = append(tx.updates, valueUpdate{node: id, off: tx.nextOff, value: []byte(value)})
	tx.nextOff += uint64(len(value))
	return nil
}

// Abort discards the staged updates.
func (tx *Tx) Abort() {
	tx.done = true
	tx.updates = nil
}

// Commit makes the staged updates durable: they are written to the
// write-ahead log and synced, marked committed, applied to the store file,
// and finally checkpointed (log truncation). A crash at any point either
// loses the whole transaction (no commit record) or preserves it entirely
// (redo at next open).
func (tx *Tx) Commit() error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	tx.done = true
	if len(tx.updates) == 0 {
		return nil
	}
	u := tx.u

	wal, err := os.OpenFile(u.path+walSuffix, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open wal: %w", err)
	}
	defer wal.Close()
	payload := encodeTx(tx.updates)
	if err := u.at(PointWALWrite); err != nil {
		return fmt.Errorf("store: write wal: %w", err)
	}
	torn := false
	if u.Hooks != nil && u.Hooks.TrimWAL != nil {
		trimmed := u.Hooks.TrimWAL(payload)
		torn = len(trimmed) < len(payload)
		payload = trimmed
	}
	if len(payload) > 0 {
		if _, err := wal.Write(payload); err != nil {
			return fmt.Errorf("store: write wal: %w", err)
		}
	}
	if torn {
		// Make the torn tail durable so recovery provably discards it.
		wal.Sync()
		return fmt.Errorf("store: write wal: %w", ErrTornWAL)
	}
	if err := u.at(PointWALSync); err != nil {
		return fmt.Errorf("store: sync wal: %w", err)
	}
	if err := wal.Sync(); err != nil {
		return fmt.Errorf("store: sync wal: %w", err)
	}

	// The log record is durable: from here the transaction survives any
	// failure (an injected error below reports the step's failure to the
	// caller, but redo at the next open still applies the updates — the
	// same contract a real crash gets).
	if err := u.at(PointApply); err != nil {
		return fmt.Errorf("store: apply: %w", err)
	}
	if err := u.apply(tx.updates); err != nil {
		return err
	}
	if err := u.at(PointStoreSync); err != nil {
		return fmt.Errorf("store: sync store: %w", err)
	}
	if err := u.file.Sync(); err != nil {
		return fmt.Errorf("store: sync store: %w", err)
	}
	// Checkpoint: the transaction is fully applied; drop the log.
	if err := u.at(PointCheckpoint); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if err := os.Truncate(u.path+walSuffix, 0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	return nil
}

// encodeTx renders the update records followed by a CRC-protected commit
// record.
func encodeTx(updates []valueUpdate) []byte {
	var out []byte
	var u64 [8]byte
	crc := crc32.NewIEEE()
	put := func(b []byte) {
		out = append(out, b...)
		crc.Write(b)
	}
	for _, up := range updates {
		put([]byte{walUpdate})
		binary.LittleEndian.PutUint32(u64[:4], uint32(up.node))
		put(u64[:4])
		binary.LittleEndian.PutUint64(u64[:], up.off)
		put(u64[:])
		binary.LittleEndian.PutUint32(u64[:4], uint32(len(up.value)))
		put(u64[:4])
		put(up.value)
	}
	out = append(out, walCommit)
	binary.LittleEndian.PutUint32(u64[:4], uint32(len(updates)))
	out = append(out, u64[:4]...)
	binary.LittleEndian.PutUint32(u64[:4], crc.Sum32())
	out = append(out, u64[:4]...)
	return out
}

// apply performs (or redoes) the updates against the store file and the
// in-memory page buffer. It is idempotent: every write targets an absolute
// position derived from the logged offsets. Writes go through a read-
// modify-write of the whole page so the version-2 checksum trailer of
// every touched page is recomputed.
func (u *Updater) apply(updates []valueUpdate) error {
	d := u.doc
	// An update may rewrite an id attribute: the next id() rebuilds.
	defer d.ids.drop()
	for _, up := range updates {
		// Value bytes into the text segment (possibly across pages).
		if err := u.writeStream(d.h.textStart, up.off, up.value); err != nil {
			return fmt.Errorf("store: write value: %w", err)
		}

		// Node record value pointer.
		idx := uint32(up.node) - 1
		page := d.h.nodeStart + idx/d.nodesPerPage
		recOff := int(idx%d.nodesPerPage)*recordSize + offValueOff
		var buf [12]byte
		binary.LittleEndian.PutUint64(buf[:8], up.off)
		binary.LittleEndian.PutUint32(buf[8:], uint32(len(up.value)))
		if err := u.writeInPage(page, recOff, buf[:]); err != nil {
			return fmt.Errorf("store: write record: %w", err)
		}

		// Header text-segment length.
		if end := up.off + uint64(len(up.value)); end > d.h.textBytes {
			d.h.textBytes = end
			var hb [8]byte
			binary.LittleEndian.PutUint64(hb[:], d.h.textBytes)
			if err := u.writeInPage(0, 36, hb[:]); err != nil {
				return fmt.Errorf("store: write header: %w", err)
			}
		}
	}
	return nil
}

// writeStream writes data at byte offset off of the usable-prefix stream
// starting at startPage, splitting at page boundaries.
func (u *Updater) writeStream(startPage uint32, off uint64, data []byte) error {
	usable := u.doc.h.usable()
	for len(data) > 0 {
		page := startPage + uint32(off/uint64(usable))
		inPage := int(off % uint64(usable))
		n := usable - inPage
		if n > len(data) {
			n = len(data)
		}
		if err := u.writeInPage(page, inPage, data[:n]); err != nil {
			return err
		}
		off += uint64(n)
		data = data[n:]
	}
	return nil
}

// writeInPage read-modify-writes data at byte offset off of one page's
// usable prefix, resealing the version-2 checksum and invalidating the
// buffered copy. Pages at or past EOF read as zero (text appends grow the
// file).
func (u *Updater) writeInPage(page uint32, off int, data []byte) error {
	d := u.doc
	ps := int(d.h.pageSize)
	if off+len(data) > d.h.usable() {
		return fmt.Errorf("store: page-local write beyond usable bytes")
	}
	if err := u.at(PointPageWrite); err != nil {
		return fmt.Errorf("store: write page %d: %w", page, err)
	}
	buf := make([]byte, ps)
	base := int64(page) * int64(ps)
	if _, err := u.file.ReadAt(buf, base); err != nil && err != io.EOF {
		return fmt.Errorf("store: reread page %d: %w", page, err)
	}
	copy(buf[off:], data)
	if d.h.version >= 2 {
		sealPage(buf)
	}
	if _, err := u.file.WriteAt(buf, base); err != nil {
		return fmt.Errorf("store: write page %d: %w", page, err)
	}
	u.invalidatePage(page)
	return nil
}

// invalidatePage drops the buffered frame of a rewritten page; the next
// access re-reads from the file.
func (u *Updater) invalidatePage(page uint32) {
	u.doc.dropRecordCache()
	if f, ok := u.doc.buf.frames[page]; ok && f.pins == 0 {
		u.doc.buf.lruRemove(f)
		delete(u.doc.buf.frames, page)
		u.doc.buf.free = append(u.doc.buf.free, f)
	}
}

// Recover redoes committed transactions left in the write-ahead log (a
// crash between commit and checkpoint) and discards incomplete tails (a
// crash before commit). Missing logs are fine.
func Recover(path string) error {
	walPath := path + walSuffix
	data, err := os.ReadFile(walPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: read wal: %w", err)
	}
	if len(data) == 0 {
		return nil
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: recover %s: %w", path, err)
	}
	defer f.Close()
	// Redo must read pages the crash may have torn mid-write; every page
	// it touches is rewritten with a fresh checksum, so verification is
	// deferred to the real open that follows recovery.
	doc, err := OpenReaderAt(f, Options{BufferPages: 4, SkipVerify: true})
	if err != nil {
		return err
	}
	u := &Updater{path: path, file: f, doc: doc}

	pos := 0
	for pos < len(data) {
		updates, next, committed := decodeTx(data[pos:])
		if !committed {
			break // incomplete or corrupt tail: discard
		}
		if err := u.apply(updates); err != nil {
			return err
		}
		pos += next
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Truncate(walPath, 0)
}

// decodeTx parses one transaction from the log. committed is false for a
// truncated tail or a CRC mismatch.
func decodeTx(data []byte) (updates []valueUpdate, length int, committed bool) {
	crc := crc32.NewIEEE()
	pos := 0
	need := func(n int) bool { return pos+n <= len(data) }
	for {
		if !need(1) {
			return nil, 0, false
		}
		kind := data[pos]
		switch kind {
		case walUpdate:
			if !need(1 + 4 + 8 + 4) {
				return nil, 0, false
			}
			hdr := data[pos : pos+17]
			node := dom.NodeID(binary.LittleEndian.Uint32(hdr[1:5]))
			off := binary.LittleEndian.Uint64(hdr[5:13])
			n := int(binary.LittleEndian.Uint32(hdr[13:17]))
			if !need(17 + n) {
				return nil, 0, false
			}
			crc.Write(data[pos : pos+17+n])
			updates = append(updates, valueUpdate{
				node: node, off: off,
				value: append([]byte(nil), data[pos+17:pos+17+n]...),
			})
			pos += 17 + n
		case walCommit:
			if !need(1 + 4 + 4) {
				return nil, 0, false
			}
			count := binary.LittleEndian.Uint32(data[pos+1 : pos+5])
			sum := binary.LittleEndian.Uint32(data[pos+5 : pos+9])
			if int(count) != len(updates) || sum != crc.Sum32() {
				return nil, 0, false
			}
			return updates, pos + 9, true
		default:
			return nil, 0, false
		}
	}
}

// EncodeCommittedUpdate builds the write-ahead-log image of one committed
// value update against the document's current state. It exists for crash
// recovery simulations (tests and examples): writing it to the .wal file
// without touching the store mimics a crash between commit and checkpoint.
func EncodeCommittedUpdate(d *Doc, node dom.NodeID, value string) []byte {
	return encodeTx([]valueUpdate{{node: node, off: d.h.textBytes, value: []byte(value)}})
}
