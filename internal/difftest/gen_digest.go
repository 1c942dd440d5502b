//go:build ignore

// gen_digest rewrites testdata/plandigest.golden from the current compiler.
// Run it (go generate ./internal/difftest) only in a PR that means to change
// plans, and list the changed entries in that PR.
package main

import (
	"log"
	"os"

	"natix/internal/difftest"
)

func main() {
	hs, err := difftest.PlanDigest()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("testdata/plandigest.golden", []byte(difftest.FormatDigest(hs)), 0o644); err != nil {
		log.Fatal(err)
	}
}
