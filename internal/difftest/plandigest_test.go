package difftest

import (
	"os"
	"strings"
	"testing"
)

// TestPlanDigest holds every Fig. 5, Fig. 10 and corpus plan, and the work
// and answer of one run of it, to the committed golden digest. On a
// mismatch it names each entry whose plan hash moved and each whose work or
// answer moved under an unchanged hash; a PR that changes plans or work on
// purpose regenerates the file with go generate and lists those entries.
func TestPlanDigest(t *testing.T) {
	golden, err := os.ReadFile("testdata/plandigest.golden")
	if err != nil {
		t.Fatal(err)
	}
	hs, err := PlanDigest()
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) < 2*(4+12+400) {
		t.Fatalf("digest covers %d plans", len(hs))
	}
	got := FormatDigest(hs)
	if got == string(golden) {
		return
	}
	// Key each line by config, id and expression; keep its hash and its
	// work and answer apart.
	type entry struct{ hash, work string }
	index := func(s string) map[string]entry {
		m := map[string]entry{}
		for _, l := range strings.Split(s, "\n") {
			if f := strings.Split(l, "\t"); len(f) == 6 {
				m[f[0]+"\t"+f[1]+"\t"+f[5]] = entry{hash: f[2], work: f[3] + "\t" + f[4]}
			}
		}
		return m
	}
	want, have := index(string(golden)), index(got)
	n := 0
	report := func(format string, args ...any) {
		if n++; n <= 20 {
			t.Errorf(format, args...)
		}
	}
	for k, h := range have {
		w, ok := want[k]
		switch {
		case !ok:
			report("new plan %s", k)
		case w.hash != h.hash:
			report("plan changed %s: %s -> %s", k, w.hash, h.hash)
		case w.work != h.work:
			report("work changed, same plan %s: %s -> %s", k, w.work, h.work)
		}
	}
	for k := range want {
		if _, ok := have[k]; !ok {
			report("plan gone %s", k)
		}
	}
	t.Errorf("plan digest differs from testdata/plandigest.golden (%d entries)", n)
}
