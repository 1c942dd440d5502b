package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"natix/internal/dom"
)

// strvalPieces mixes ASCII, multi-byte UTF-8 and the empty string.
var strvalPieces = []string{"", "a", "xyz", "é", "日本語", "🙂", "Guido Moerkotte", "1991", strings.Repeat("long-", 60)}

// randomStrvalDoc builds a document whose elements carry text split over
// several text nodes with comments and processing instructions between
// them, nested elements, attributes and namespace declarations.
func randomStrvalDoc(rng *rand.Rand) *dom.MemDoc {
	piece := func() string {
		var sb strings.Builder
		for k := rng.Intn(3); k >= 0; k-- {
			sb.WriteString(strvalPieces[rng.Intn(len(strvalPieces))])
		}
		return sb.String()
	}
	b := dom.NewBuilder()
	var build func(depth int)
	build = func(depth int) {
		if rng.Intn(3) == 0 {
			b.NSDecl(fmt.Sprintf("p%d", rng.Intn(3)), "urn:"+piece())
		}
		for k := rng.Intn(3); k > 0; k-- {
			b.Attr("", fmt.Sprintf("a%d", k), "", piece())
		}
		for k := rng.Intn(6); k > 0; k-- {
			switch rng.Intn(5) {
			case 0, 1:
				b.Text(piece())
			case 2:
				b.Comment(piece())
			case 3:
				b.ProcInstr("pi", piece())
			default:
				if depth < 4 {
					b.StartElement("", fmt.Sprintf("e%d", rng.Intn(4)), "")
					build(depth + 1)
					b.EndElement()
				}
			}
		}
	}
	b.StartElement("", "root", "")
	build(0)
	b.EndElement()
	return b.Doc()
}

// minPageDoc writes mem with the smallest page size, so values cross page
// boundaries, and opens it over a small buffer.
func minPageDoc(t testing.TB, mem dom.Document) *Doc {
	t.Helper()
	var img bytes.Buffer
	if err := writeDoc(&img, mem, MinPageSize, FormatVersion); err != nil {
		t.Fatal(err)
	}
	d, err := OpenReaderAt(bytes.NewReader(img.Bytes()), Options{BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// strvalProbes returns sv itself, a proper prefix, an extension, a one-byte
// mutation and the empty string.
func strvalProbes(rng *rand.Rand, sv string) []string {
	probes := []string{sv, sv + "x", ""}
	if sv != "" {
		probes = append(probes, sv[:rng.Intn(len(sv))])
		m := []byte(sv)
		m[rng.Intn(len(m))] ^= byte(1 + rng.Intn(255))
		probes = append(probes, string(m))
	}
	return probes
}

// TestStringValueEqualsInPlace is the property test of the in-place
// comparison: dom.StringValueEquals must agree with comparing the
// materialized string-value on the in-memory document and on the store, for
// every node of random documents and for each probe; and Value, built from
// the text pages in place, must equal the readStream copy byte for byte.
func TestStringValueEqualsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var split, crossing int // shapes the documents must exercise
	for i := 0; i < 40; i++ {
		mem := randomStrvalDoc(rng)
		sd := minPageDoc(t, mem)
		for id := dom.NodeID(1); int(id) <= mem.NodeCount(); id++ {
			sv := mem.StringValue(id)
			if texts := textChildren(mem, id); texts > 1 {
				split++
			}
			for _, s := range strvalProbes(rng, sv) {
				want := sv == s
				if got := dom.StringValueEquals(mem, id, s); got != want {
					t.Fatalf("doc %d #%d (%v) MemDoc: StringValueEquals(%q) = %v, string-value %q", i, id, mem.Kind(id), s, got, sv)
				}
				if got := dom.StringValueEquals(sd, id, s); got != want {
					t.Fatalf("doc %d #%d (%v) store: StringValueEquals(%q) = %v, string-value %q", i, id, mem.Kind(id), s, got, sv)
				}
			}
			off, n := sd.valueSpan(id)
			if u := uint64(sd.h.usable()); n > 0 && off/u != (off+uint64(n)-1)/u {
				crossing++
			}
			old, err := sd.buf.readStream(sd.h.textStart, off, n)
			if err != nil {
				t.Fatal(err)
			}
			if v := sd.Value(id); v != string(old) || v != mem.Value(id) {
				t.Fatalf("doc %d #%d: Value %q, readStream %q, MemDoc %q", i, id, v, old, mem.Value(id))
			}
		}
		if err := sd.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if split == 0 || crossing == 0 {
		t.Fatalf("generator too tame: %d elements with split text, %d values across pages", split, crossing)
	}
}

// textChildren counts id's text-node children.
func textChildren(d dom.Document, id dom.NodeID) int {
	n := 0
	for c := d.FirstChild(id); c != dom.NilNode; c = d.NextSibling(c) {
		if d.Kind(c) == dom.KindText {
			n++
		}
	}
	return n
}

// TestStringValueEqualsAllocs pins the comparison at zero allocations on the
// store, for a text value crossing page boundaries and for an element whose
// string-value spans several text nodes, once the buffer's frames exist.
func TestStringValueEqualsAllocs(t *testing.T) {
	long := strings.Repeat("日本語 text ", 200) // several 512-byte pages
	b := dom.NewBuilder()
	b.StartElement("", "r", "")
	b.StartElement("", "v", "")
	b.Text(long)
	b.EndElement()
	b.StartElement("", "m", "")
	b.Text("first ")
	b.Comment("skipped")
	b.Text(long)
	b.StartElement("", "n", "")
	b.Text("inner")
	b.EndElement()
	b.EndElement()
	b.EndElement()
	mem := b.Doc()
	sd := minPageDoc(t, mem)
	for id := dom.NodeID(1); int(id) <= mem.NodeCount(); id++ {
		if k := mem.Kind(id); k != dom.KindElement || (mem.LocalName(id) != "v" && mem.LocalName(id) != "m") {
			continue
		}
		sv := mem.StringValue(id)
		miss := sv[:len(sv)-1] + "?"
		for _, s := range []string{sv, miss} {
			want := s == sv
			allocs := testing.AllocsPerRun(20, func() {
				if dom.StringValueEquals(sd, id, s) != want {
					t.Fatalf("#%d: StringValueEquals = %v", id, !want)
				}
			})
			if allocs != 0 {
				t.Errorf("#%d <%s> (%d bytes): %.1f allocations per comparison, want 0", id, mem.LocalName(id), len(s), allocs)
			}
		}
	}
	if err := sd.Err(); err != nil {
		t.Fatal(err)
	}
}
