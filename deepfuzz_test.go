// Deep differential fuzz: five seeds, four hundred random queries each,
// every engine configuration against the reference interpreter — plus the
// crash-resistance corpus: hostile expressions and bit-flipped store files
// must produce an error or a correct result, never a panic.
package natix

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"natix/internal/conformance"
	"natix/internal/dom"
	"natix/internal/interp"
	"natix/internal/store"
)

func TestDeepFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("deep fuzz is several seconds")
	}
	for _, seed := range []int64{1, 7, 99, 12345, 777777} {
		rng := rand.New(rand.NewSource(seed))
		docs := make([]*dom.MemDoc, 4)
		for i := range docs {
			docs[i] = randomDoc(rng, 30+i*50)
		}
		for i := 0; i < 400; i++ {
			expr := randomQuery(rng)
			d := docs[rng.Intn(len(docs))]
			root := RootNode(d)
			ref, err := interp.Compile(expr, nil, interp.Options{DedupSteps: true})
			if err != nil {
				t.Fatalf("seed %d interp compile %q: %v", seed, expr, err)
			}
			want, err := ref.Eval(root, nil)
			if err != nil {
				t.Fatalf("seed %d interp eval %q: %v", seed, expr, err)
			}
			wantR := conformance.Render(want)
			for _, cfg := range engineConfigs {
				q, err := cfg.compile(expr, nil)
				if err != nil {
					t.Fatalf("%s compile %q: %v", cfg.name, expr, err)
				}
				res, err := q.Run(root, nil)
				if err != nil {
					t.Fatalf("%s run %q: %v", cfg.name, expr, err)
				}
				if got := conformance.Render(res.Value); got != wantR {
					t.Fatalf("seed %d %s: %q diverges\n got %s\nwant %s\ndoc: %s",
						seed, cfg.name, expr, got, wantR, dom.SerializeString(d))
				}
			}
		}
	}
}

// hostileExprs are adversarial inputs to Compile: junk bytes, unbalanced
// nesting, pathological sizes. Compile must return an error or a query;
// running the query must return an error or a result. Any panic fails the
// test process itself, which is the point.
func hostileExprs() []string {
	return []string{
		"",
		")",
		"(((((((((((((((((((((",
		strings.Repeat("(", 20_000),
		strings.Repeat("a/", 5_000) + "b",
		strings.Repeat("//a[", 2_000),
		"a[]",
		"a[b",
		"'unterminated",
		"\"unterminated",
		"$",
		"$1x",
		"a b c",
		"//a[@*]",
		"1 div 0 mod 0",
		"-" + strings.Repeat("-", 5_000) + "1",
		"func(((",
		"a::b::c",
		"child::",
		"/..[..]/..",
		"self::node()()",
		"\x00\x01\x02",
		"日本語::テスト",
		"a|" + strings.Repeat("b|", 5_000) + "c",
		strings.Repeat("not(", 3_000) + "true()" + strings.Repeat(")", 3_000),
		"//*[position() = position()[position()]]",
		"count(count(count(1)))",
		"id(id(id('x')))",
		"..................",
		"@@@@",
		"////",
		"[1]",
	}
}

func TestHostileExpressionsNeverPanic(t *testing.T) {
	d, err := ParseDocumentString(`<a><b id="1">x</b><b id="2">y</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	root := RootNode(d)
	for _, expr := range hostileExprs() {
		q, err := Compile(expr)
		if err != nil {
			continue // rejected: fine
		}
		if _, err := q.Run(root, nil); err != nil {
			continue // failed cleanly: fine
		}
	}
}

// TestMutatedStoreFuzz flips random bytes in valid store images and runs
// random queries against whatever still opens. The per-page checksums make
// "silently wrong" impossible: a run either errors or never read a mutated
// page, so a successful run must agree with the clean document.
func TestMutatedStoreFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation fuzz is slow")
	}
	rng := rand.New(rand.NewSource(2025))
	mem := randomDoc(rng, 150)
	var img bytes.Buffer
	if err := store.WriteTo(&img, mem); err != nil {
		t.Fatal(err)
	}
	clean := img.Bytes()

	for trial := 0; trial < 150; trial++ {
		bad := append([]byte(nil), clean...)
		for m := 0; m < 1+rng.Intn(16); m++ {
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		}
		sd, err := store.OpenReaderAt(bytes.NewReader(bad), store.Options{BufferPages: 3})
		if err != nil {
			continue // rejected at open: fine
		}
		for i := 0; i < 10; i++ {
			expr := randomQuery(rng)
			q, err := Compile(expr)
			if err != nil {
				t.Fatalf("trial %d: compile %q: %v", trial, expr, err)
			}
			res, err := q.RunContext(context.Background(), RootNode(sd), nil)
			if err != nil {
				continue // fault detected: fine
			}
			// The run saw no corruption, so it must match the clean doc.
			want, err := q.Run(RootNode(mem), nil)
			if err != nil {
				t.Fatalf("trial %d: %q on clean doc: %v", trial, expr, err)
			}
			got, wantR := conformance.Render(res.Value), conformance.Render(want.Value)
			// Node renderings embed document identity-independent shapes,
			// so cross-document comparison is meaningful.
			if got != wantR {
				t.Fatalf("trial %d: %q silently wrong on mutated store\n got %s\nwant %s",
					trial, expr, got, wantR)
			}
		}
	}
}
