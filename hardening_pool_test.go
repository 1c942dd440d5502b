// Pool-balance hardening: the batched protocol borrows node/ID buffers,
// axis steppers and node columns from the run's scratch, and every run
// takes its scratch from a process-wide pool. Every get must be matched by
// a put no matter how the run ends — otherwise a free-list entry's backing
// array is lost and the run churns allocations exactly where batching was
// supposed to remove them — and every run must give back the one scratch it
// took. The physical package's pool audit counts raw get/put and take/return
// traffic process-wide; combined with the iterator leak tracker this pins
// both halves of the cleanup contract.
package natix

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"natix/internal/gen"
	"natix/internal/physical"
)

// auditRun executes one tracked run between PoolAuditStart/Stop and asserts
// pooled get/put balance, exactly one scratch taken and returned, and
// iterator open/close balance.
func auditRun(t *testing.T, label string, q *Query, ctx context.Context, node Node, wantErr func(error) bool) {
	t.Helper()
	physical.PoolAuditStart()
	_, err, lt := trackedRun(q, ctx, node, nil)
	a := physical.PoolAuditStop()
	if !wantErr(err) {
		t.Fatalf("%s: err = %v", label, err)
	}
	lt.assertBalanced(t, label)
	if a.Gets != a.Puts {
		t.Errorf("%s: pooled buffers unbalanced: %d gets, %d puts", label, a.Gets, a.Puts)
	}
	if a.Gets == 0 {
		t.Errorf("%s: pool audit saw no traffic — plan did not run batched", label)
	}
	if a.Takes != 1 || a.Returns != 1 {
		t.Errorf("%s: run took %d scratches and returned %d, want 1 and 1", label, a.Takes, a.Returns)
	}
}

// poolPlans compiles the audited queries at one batch size (0 is the
// default, the only size whose buffers outlive the run).
func poolPlans(t *testing.T, batch int) []*Query {
	t.Helper()
	var qs []*Query
	for _, expr := range []string{
		"//e/descendant::*",
		"//e[@id mod 3 = 0]/ancestor::*",
		"count(//e//e)",
	} {
		q, err := Compile(expr)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, setBatchSize(q, batch))
	}
	return qs
}

func TestPoolBalanceBatched(t *testing.T) {
	d := gen.Generate(gen.Params{Elements: 1500, Fanout: 6})
	ok := func(err error) bool { return err == nil }
	for _, batch := range []int{16, 0} {
		label := func(s string) string { return fmt.Sprintf("batch %d %s", batch, s) }
		for _, q := range poolPlans(t, batch) {
			// Clean completion: everything handed out comes back on Close.
			auditRun(t, label("clean"), q, context.Background(), RootNode(d), ok)
			// Mid-stream tuple limit: operators are torn down while buffers
			// and steppers are live in the pipeline.
			ql, err := CompileWith("//e/descendant::*", Options{Limits: Limits{MaxTuples: 40}})
			if err != nil {
				t.Fatal(err)
			}
			auditRun(t, label("limit"), setBatchSize(ql, batch), context.Background(), RootNode(d), func(err error) bool {
				var le *LimitError
				return errors.As(err, &le)
			})
			// Pre-cancelled context: the run aborts before or during the
			// first batch; early-Close paths must still drain the pools.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			auditRun(t, label("cancelled"), q, ctx, RootNode(d), func(err error) bool {
				return errors.Is(err, context.Canceled)
			})
		}
		// Open failure: the unbound variable fails the root's Open, which
		// must clean up after itself with no Close to follow.
		qv, err := Compile("$v/descendant::*")
		if err != nil {
			t.Fatal(err)
		}
		auditRun(t, label("open-failure"), setBatchSize(qv, batch), context.Background(), RootNode(d), func(err error) bool {
			return err != nil
		})
	}
}
