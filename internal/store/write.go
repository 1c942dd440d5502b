package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"natix/internal/dom"
	"natix/internal/pathindex"
)

// Write serializes a document into the paged store format at path.
func Write(path string, d dom.Document) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	if err := WriteTo(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTo serializes a document into the paged store format.
func WriteTo(w io.Writer, d dom.Document) error {
	return writeDoc(w, d, DefaultPageSize, FormatVersion)
}

// WriteToPageSize is WriteTo with pages of pageSize bytes, MinPageSize or
// more: small pages spread even a small document over many, so that its
// sibling and child links cross pages.
func WriteToPageSize(w io.Writer, d dom.Document, pageSize int) error {
	if pageSize < MinPageSize {
		return fmt.Errorf("store: page size %d below minimum %d", pageSize, MinPageSize)
	}
	return writeDoc(w, d, pageSize, FormatVersion)
}

// ImportXML parses XML from r and writes it as a store file at path.
func ImportXML(path string, r io.Reader) error {
	doc, err := dom.Parse(r)
	if err != nil {
		return err
	}
	return Write(path, doc)
}

// nameTable interns name strings during writing.
type nameTable struct {
	idx  map[string]uint32
	list []string
	size uint64
}

func newNameTable() *nameTable {
	t := &nameTable{idx: map[string]uint32{}}
	t.intern("") // index 0 is the empty string
	return t
}

func (t *nameTable) intern(s string) uint32 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := uint32(len(t.list))
	t.idx[s] = i
	t.list = append(t.list, s)
	t.size += uint64(4 + len(s))
	return i
}

// writeDoc serializes at the given format version. Version 1 is kept
// writable for backward-compatibility tests; production paths write
// FormatVersion.
func writeDoc(w io.Writer, d dom.Document, pageSize, version int) error {
	nodeCount := uint32(d.NodeCount())

	// Pass 1: intern names, accumulate text-segment offsets.
	names := newNameTable()
	textOff := make([]uint64, nodeCount+1)
	textLen := make([]uint32, nodeCount+1)
	var textBytes uint64
	for id := dom.NodeID(1); id <= dom.NodeID(nodeCount); id++ {
		names.intern(d.LocalName(id))
		names.intern(d.Prefix(id))
		names.intern(d.NamespaceURI(id))
		switch d.Kind(id) {
		case dom.KindDocument, dom.KindElement:
			// No stored value; string-value derives from text descendants.
		default:
			v := d.Value(id)
			textOff[id] = textBytes
			textLen[id] = uint32(len(v))
			textBytes += uint64(len(v))
		}
	}

	// The structural path index travels with the file from version 3 on;
	// it is encoded up front so the layout knows its page span.
	var indexBlob []byte
	if version >= 3 {
		indexBlob = pathindex.Build(d).Encode()
	}

	// Layout. All stream offsets address the concatenation of the pages'
	// usable prefixes (everything before the version-2 checksum trailer).
	h := header{
		version:    uint32(version),
		pageSize:   uint32(pageSize),
		nodeCount:  nodeCount,
		nameBytes:  4 + names.size, // count prefix + entries
		textBytes:  textBytes,
		indexBytes: uint64(len(indexBlob)),
	}
	usable := h.usable()
	namePages := pagesFor(h.nameBytes, usable)
	nodesPerPage := uint32(usable / recordSize)
	nodePages := (nodeCount + nodesPerPage - 1) / nodesPerPage
	indexPages := pagesFor(h.indexBytes, usable)
	h.nameStart = 1
	h.nodeStart = 1 + namePages
	h.indexStart = h.nodeStart + nodePages
	h.textStart = h.indexStart + indexPages

	bw := bufio.NewWriterSize(w, pageSize*4)
	pw := &pageWriter{w: bw, usable: usable, seal: version >= 2}

	// Header page: encoded into the usable prefix, sealed like any other.
	hdr := make([]byte, usable)
	h.encode(hdr)
	if err := pw.write(hdr); err != nil {
		return err
	}

	// Name table stream.
	var u32buf [4]byte
	binary.LittleEndian.PutUint32(u32buf[:], uint32(len(names.list)))
	if err := pw.write(u32buf[:]); err != nil {
		return err
	}
	for _, s := range names.list {
		binary.LittleEndian.PutUint32(u32buf[:], uint32(len(s)))
		if err := pw.write(u32buf[:]); err != nil {
			return err
		}
		if err := pw.write([]byte(s)); err != nil {
			return err
		}
	}
	if err := pw.pad(); err != nil {
		return err
	}

	// Node records.
	var rec [recordSize]byte
	perPage := int(nodesPerPage)
	inPage := 0
	for id := dom.NodeID(1); id <= dom.NodeID(nodeCount); id++ {
		encodeRecord(rec[:], d.Kind(id),
			names.intern(d.LocalName(id)), names.intern(d.Prefix(id)), names.intern(d.NamespaceURI(id)),
			d.Parent(id), d.FirstChild(id), d.LastChild(id), d.NextSibling(id), d.PrevSibling(id),
			d.FirstAttr(id), d.NextAttr(id), d.FirstNSDecl(id), d.NextNSDecl(id),
			textOff[id], textLen[id])
		if err := pw.write(rec[:]); err != nil {
			return err
		}
		inPage++
		if inPage == perPage {
			// Records never straddle pages; pad the slack.
			if err := pw.pad(); err != nil {
				return err
			}
			inPage = 0
		}
	}
	if err := pw.pad(); err != nil {
		return err
	}

	// Path index blob (version 3+).
	if len(indexBlob) > 0 {
		if err := pw.write(indexBlob); err != nil {
			return err
		}
		if err := pw.pad(); err != nil {
			return err
		}
	}

	// Text segment.
	for id := dom.NodeID(1); id <= dom.NodeID(nodeCount); id++ {
		if textLen[id] == 0 {
			continue
		}
		if err := pw.write([]byte(d.Value(id))); err != nil {
			return err
		}
	}
	if err := pw.pad(); err != nil {
		return err
	}
	return bw.Flush()
}

func pagesFor(bytes uint64, usable int) uint32 {
	return uint32((bytes + uint64(usable) - 1) / uint64(usable))
}

// pageWriter tracks page alignment over a byte stream of usable-sized
// pages; when sealing (format version 2), a running CRC32 of each page's
// data is appended as its checksum trailer at every page boundary.
type pageWriter struct {
	w      io.Writer
	usable int
	seal   bool

	inPage int
	crc    uint32
}

func (p *pageWriter) write(b []byte) error {
	for len(b) > 0 {
		n := p.usable - p.inPage
		if n > len(b) {
			n = len(b)
		}
		chunk := b[:n]
		if _, err := p.w.Write(chunk); err != nil {
			return err
		}
		if p.seal {
			p.crc = crc32.Update(p.crc, crc32.IEEETable, chunk)
		}
		p.inPage += n
		b = b[n:]
		if p.inPage == p.usable {
			if err := p.finishPage(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finishPage emits the checksum trailer of the completed page.
func (p *pageWriter) finishPage() error {
	p.inPage = 0
	if !p.seal {
		return nil
	}
	var trailer [checksumSize]byte
	binary.LittleEndian.PutUint32(trailer[:], p.crc)
	p.crc = 0
	_, err := p.w.Write(trailer[:])
	return err
}

// pad fills the current page's usable prefix with zeroes up to the next
// boundary (sealing it in passing).
func (p *pageWriter) pad() error {
	if p.inPage == 0 {
		return nil
	}
	return p.write(make([]byte, p.usable-p.inPage))
}
