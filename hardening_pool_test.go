// Pool-balance hardening: the batched protocol borrows node/ID buffers and
// axis steppers from per-exec free lists. Every get must be matched by a
// put no matter how the run ends — otherwise a free-list entry's backing
// array is lost and the run churns allocations exactly where batching was
// supposed to remove them. The physical package's pool audit counts raw
// get/put traffic process-wide; combined with the iterator leak tracker
// this pins both halves of the cleanup contract.
package natix

import (
	"context"
	"errors"
	"testing"

	"natix/internal/gen"
	"natix/internal/physical"
)

// auditRun executes one tracked run between PoolAuditStart/Stop and asserts
// pooled get/put balance plus iterator open/close balance.
func auditRun(t *testing.T, label string, q *Query, ctx context.Context, node Node, wantErr func(error) bool) {
	t.Helper()
	physical.PoolAuditStart()
	_, err, lt := trackedRun(q, ctx, node, nil)
	gets, puts := physical.PoolAuditStop()
	if !wantErr(err) {
		t.Fatalf("%s: err = %v", label, err)
	}
	lt.assertBalanced(t, label)
	if gets != puts {
		t.Errorf("%s: pooled buffers unbalanced: %d gets, %d puts", label, gets, puts)
	}
	if gets == 0 {
		t.Errorf("%s: pool audit saw no traffic — plan did not run batched", label)
	}
}

func poolPlans(t *testing.T) []*Query {
	t.Helper()
	opt := Options{Batch: 16}
	var qs []*Query
	for _, expr := range []string{
		"//e/descendant::*",
		"//e[@id mod 3 = 0]/ancestor::*",
		"count(//e//e)",
	} {
		q, err := CompileWith(expr, opt)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	return qs
}

func TestPoolBalanceBatched(t *testing.T) {
	d := gen.Generate(gen.Params{Elements: 1500, Fanout: 6})
	ok := func(err error) bool { return err == nil }
	for _, q := range poolPlans(t) {
		// Clean completion: everything handed out comes back on Close.
		auditRun(t, "clean", q, context.Background(), RootNode(d), ok)
		// Mid-stream tuple limit: operators are torn down while buffers and
		// steppers are live in the pipeline.
		ql, err := CompileWith("//e/descendant::*", Options{Batch: 16, Limits: Limits{MaxTuples: 40}})
		if err != nil {
			t.Fatal(err)
		}
		auditRun(t, "limit", ql, context.Background(), RootNode(d), func(err error) bool {
			var le *LimitError
			return errors.As(err, &le)
		})
		// Pre-cancelled context: the run aborts before or during the first
		// batch; early-Close paths must still drain the pools.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		auditRun(t, "cancelled", q, ctx, RootNode(d), func(err error) bool {
			return errors.Is(err, context.Canceled)
		})
	}
}
