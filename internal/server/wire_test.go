package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"natix"
	"natix/internal/difftest"
	"natix/internal/dom"
	"natix/internal/store"
)

// checkDecode decodes b with QueryResult's decoder and with encoding/json
// by reflection into the method-less alias, and fails unless both agree on
// error versus success and on the decoded value. The decoded value must
// also alias nothing of b, and json.Unmarshal, which calls the method, must
// decode the same.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	var want queryResultJSON
	wantErr := json.Unmarshal(b, &want)
	in := bytes.Clone(b)
	var got QueryResult
	gotErr := got.UnmarshalJSON(in)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: decoder error %v, encoding/json error %v", b, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	clear(in)
	if !reflect.DeepEqual(got, QueryResult(want)) {
		t.Fatalf("%q: decoder %+v, encoding/json %+v", b, got, want)
	}
	var via QueryResult
	if err := json.Unmarshal(b, &via); err != nil || !reflect.DeepEqual(via, got) {
		t.Fatalf("%q: json.Unmarshal %+v (%v), decoder %+v", b, via, err, got)
	}
}

// FuzzQueryResultJSON checks the hand-written decoder against encoding/json
// on arbitrary input. The committed corpus covers escapes, surrogate pairs,
// invalid UTF-8, case-variant and duplicate keys, nulls, non-integer and
// out-of-range counts, truncation and the NaN-as-string form;
// `go test -fuzz=FuzzQueryResultJSON ./internal/server` explores further.
func FuzzQueryResultJSON(f *testing.F) {
	f.Add(encodeResult(f, attrNodeSet(3)))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b)
	})
}

// encodeResult encodes r as the service writes it.
func encodeResult(tb testing.TB, r QueryResult) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// attrNodeSet is an n-node attribute node-set in serialize's shape.
func attrNodeSet(n int) QueryResult {
	r := QueryResult{Kind: "node-set", Count: n}
	for i := 0; i < n; i++ {
		r.Nodes = append(r.Nodes, QueryNode{Kind: "attribute", Name: "id", Value: strconv.Itoa(i)})
	}
	return r
}

// TestQueryResultRoundTrip runs every difftest corpus answer, on the
// in-memory and the store backend, through serialize, the service's
// encoding and the decoder, and requires the decoded result to equal the
// serialized one and the fast path to accept every node-set. A second pass
// with a two-node cap covers truncated node-sets.
func TestQueryResultRoundTrip(t *testing.T) {
	items, docs, err := difftest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	checked, nodeSets := 0, 0
	for _, be := range difftest.Backends() {
		prepared := map[string]dom.Document{}
		for name, d := range docs {
			if prepared[name], err = be.Prepare(d); err != nil {
				t.Fatal(err)
			}
		}
		for _, maxNodes := range []int{10000, 2} {
			s := &Server{cfg: Config{MaxResultNodes: maxNodes}}
			for _, it := range items {
				q, err := natix.CompileWith(it.Expr, natix.Options{Namespaces: it.NS})
				if err != nil {
					t.Fatalf("%s: %v", it.Expr, err)
				}
				res, err := q.Run(natix.RootNode(prepared[it.DocName]), it.Vars)
				if err != nil {
					t.Fatalf("%s: %v", it.Expr, err)
				}
				want := s.serialize(res)
				data := encodeResult(t, want)
				if want.Kind == "node-set" {
					var fast QueryResult
					if d := (resultDecoder{b: data}); !d.result(&fast) {
						t.Fatalf("%s on %s/%s: fast path declined %s", it.Expr, be.Name, it.DocName, data)
					}
					nodeSets++
				}
				var got QueryResult
				if err := json.Unmarshal(data, &got); err != nil {
					t.Fatalf("%s: %v", it.Expr, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s/%s: decoded %+v, serialized %+v", it.Expr, be.Name, it.DocName, got, want)
				}
				checked++
			}
		}
	}
	if checked < 1000 || nodeSets < checked/4 {
		t.Fatalf("only %d answers, %d node-sets checked: corpus wiring broken", checked, nodeSets)
	}
}

// TestDecodeNodeSetAllocs: decoding an attribute node-set allocates a
// constant number of objects whatever its length: one copy of the input,
// the node list, and the receiver.
func TestDecodeNodeSetAllocs(t *testing.T) {
	for _, n := range []int{20, 200} {
		data := encodeResult(t, attrNodeSet(n))
		allocs := testing.AllocsPerRun(20, func() {
			var r QueryResult
			if err := r.UnmarshalJSON(data); err != nil || len(r.Nodes) != n {
				t.Fatalf("decode: %v, %d nodes", err, len(r.Nodes))
			}
			// A decoded kind is the constant, not a slice of the body.
			if unsafe.StringData(r.Nodes[0].Kind) != unsafe.StringData("attribute") {
				t.Fatal("decoded kind is not the kind constant")
			}
		})
		if allocs > 3 {
			t.Errorf("decoding %d attribute nodes: %.0f allocations, want at most 3", n, allocs)
		}
	}
}

// TestDecodeHostileCount: a count the body cannot hold sizes the node list
// by what the body can hold.
func TestDecodeHostileCount(t *testing.T) {
	for _, count := range []string{"1000000000", "-5"} {
		var r QueryResult
		data := `{"kind":"node-set","count":` + count + `,"nodes":[{"kind":"text","value":"x"}]}`
		if err := json.Unmarshal([]byte(data), &r); err != nil {
			t.Fatal(err)
		}
		if len(r.Nodes) != 1 || cap(r.Nodes) > len(data)/minNodeJSON {
			t.Errorf("count %s: %d nodes, capacity %d", count, len(r.Nodes), cap(r.Nodes))
		}
	}
}

// TestSerializeStoreAttributeAllocs: serializing N attribute nodes of a
// store document reads each value off its page once, so it allocates at
// most N objects beyond a constant.
func TestSerializeStoreAttributeAllocs(t *testing.T) {
	const n = 200
	var src strings.Builder
	src.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, `<e id="v%d"/>`, i)
	}
	src.WriteString("</r>")
	mem, err := dom.ParseString(src.String())
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := store.WriteTo(&img, mem); err != nil {
		t.Fatal(err)
	}
	doc, err := store.OpenReaderAt(bytes.NewReader(img.Bytes()), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := natix.MustCompile("//e/@id").Run(natix.RootNode(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{cfg: Config{MaxResultNodes: 10000}}
	if r := s.serialize(res); r.Count != n || r.Nodes[n-1].Value != "v199" {
		t.Fatalf("serialized %d nodes, last %+v", r.Count, r.Nodes[n-1])
	}
	allocs := testing.AllocsPerRun(10, func() { s.serialize(res) })
	if allocs > n+8 {
		t.Errorf("serializing %d store attributes: %.0f allocations, want at most %d", n, allocs, n+8)
	}
}
