// Serialized form of an Index, used by the store to persist the structural
// index alongside the document pages. The blob is self-validating: magic,
// version and node count are checked against the opened document, a
// trailing CRC32 over the whole payload catches corruption, and every node
// list must be ascending within the document's node range — any mismatch
// makes Decode fail and the caller rebuild from the document.
package pathindex

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"natix/internal/dom"
)

// Blob format constants.
const (
	// BlobMagic opens every serialized index.
	BlobMagic = "NXPI"
	// BlobVersion is the current serialization version. Decode also reads
	// version 1, which carried 6 bytes of per-node interval encoding per
	// node after the header; it rejects any other version, which triggers a
	// rebuild, not an error surface.
	BlobVersion = 2
)

// Encode serializes the index. Layout (all little-endian):
//
//	magic "NXPI" | u32 version | u32 nodeCount | u32 pathCount
//	per path: i32 parent | u64 others | str uri | str local |
//	          u32 nodeCount | u32 NodeID each
//	u32 CRC32 (IEEE, over everything preceding)
//
// Strings are u32 length + bytes.
func (ix *Index) Encode() []byte {
	size := 4 + 4 + 4 + 4
	for i := range ix.paths {
		p := &ix.paths[i]
		size += 4 + 8 + 4 + len(p.URI) + 4 + len(p.Local) + 4 + 4*len(p.Nodes)
	}
	size += 4 // CRC
	buf := make([]byte, 0, size)
	buf = append(buf, BlobMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, BlobVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.nodeCount))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ix.paths)))
	for i := range ix.paths {
		p := &ix.paths[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Parent))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Others))
		buf = appendStr(buf, p.URI)
		buf = appendStr(buf, p.Local)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Nodes)))
		for _, id := range p.Nodes {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// Decode deserializes a blob produced by Encode, validating magic, version,
// the expected node count, the CRC, the parent links and the node lists.
// Any mismatch returns an error; the caller should fall back to Build.
func Decode(blob []byte, nodeCount int) (*Index, error) {
	if len(blob) < 16+4 {
		return nil, fmt.Errorf("pathindex: blob truncated (%d bytes)", len(blob))
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("pathindex: blob checksum mismatch (got %08x, want %08x)", got, want)
	}
	r := reader{buf: body}
	if string(r.bytes(4)) != BlobMagic {
		return nil, fmt.Errorf("pathindex: bad magic")
	}
	v := r.u32()
	if v != 1 && v != BlobVersion {
		return nil, fmt.Errorf("pathindex: unsupported version %d", v)
	}
	n := int(r.u32())
	if n != nodeCount {
		return nil, fmt.Errorf("pathindex: node count mismatch (blob %d, document %d)", n, nodeCount)
	}
	pathCount := int(r.u32())
	if pathCount < 1 || pathCount > len(body)/4 {
		return nil, fmt.Errorf("pathindex: implausible path count %d", pathCount)
	}
	if v == 1 {
		r.bytes(6 * n) // per-node post (u32) and level (u16), unread
	}
	ix := &Index{nodeCount: n, paths: make([]Path, 0, pathCount)}
	for i := 0; i < pathCount && r.err == nil; i++ {
		var p Path
		p.Parent = int32(r.u32())
		p.Others = int64(r.u64())
		p.URI = r.str()
		p.Local = r.str()
		// Only the document path (0) has no parent, and every other
		// parent precedes its child, as deriveSubtreeCounts relies on.
		if (i == 0) != (p.Parent < 0) || int(p.Parent) >= i {
			return nil, fmt.Errorf("pathindex: path %d: parent %d out of order", i, p.Parent)
		}
		k := int(r.u32())
		if k > (len(r.buf)-r.off)/4 {
			return nil, fmt.Errorf("pathindex: path %d: implausible node count %d", i, k)
		}
		if k > 0 {
			p.Nodes = make([]dom.NodeID, k)
			prev := dom.NilNode
			for j := 0; j < k; j++ {
				id := dom.NodeID(r.u32())
				if id <= prev || int(id) > n {
					return nil, fmt.Errorf("pathindex: path %d: node %d out of order or range", i, id)
				}
				p.Nodes[j], prev = id, id
			}
		}
		ix.paths = append(ix.paths, p)
	}
	if r.err != nil {
		return nil, fmt.Errorf("pathindex: blob truncated mid-record")
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("pathindex: %d trailing bytes", len(body)-r.off)
	}
	ix.deriveSubtreeCounts()
	return ix, nil
}

// reader is a bounds-checked little-endian cursor; after any overrun every
// further read yields zeros and err is set.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("overrun")
		// Numeric reads need at most 8 valid bytes; never mirror a corrupt
		// length field into an allocation.
		if n > 8 {
			n = 8
		}
		return make([]byte, n)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }
func (r *reader) str() string { return string(r.bytes(int(r.u32()))) }
