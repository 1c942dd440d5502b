package difftest

import (
	"os"
	"strings"
	"testing"
)

// TestPlanDigest holds every Fig. 5, Fig. 10 and corpus plan to the
// committed golden digest. On a mismatch it names each plan whose hash
// moved; a PR that changes plans on purpose regenerates the file with
// go generate and lists those plans.
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
	// Key each plan line by everything but its hash.
	index := func(s string) map[string]string {
		m := map[string]string{}
		for _, l := range strings.Split(s, "\n") {
			if f := strings.SplitN(l, "\t", 4); len(f) == 4 {
				m[f[0]+"\t"+f[1]+"\t"+f[3]] = f[2]
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
		if w, ok := want[k]; !ok {
			report("new plan %s", k)
		} else if w != h {
			report("plan changed %s: %s -> %s", k, w, h)
		}
	}
	for k := range want {
		if _, ok := have[k]; !ok {
			report("plan gone %s", k)
		}
	}
	t.Errorf("plan digest differs from testdata/plandigest.golden (%d entries)", n)
}
