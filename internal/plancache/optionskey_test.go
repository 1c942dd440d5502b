package plancache

import (
	"reflect"
	"testing"

	"natix"
)

// sampleFor produces a non-zero value of t that OptionsKey should be able to
// distinguish from the zero value. Returns ok=false for field types this
// test does not know how to populate — which fails the test, forcing whoever
// adds a new Options field to teach both OptionsKey and this table about it.
func sampleFor(t reflect.Type) (reflect.Value, bool) {
	switch t.Kind() {
	case reflect.Bool:
		return reflect.ValueOf(true), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return reflect.ValueOf(int64(7)).Convert(t), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return reflect.ValueOf(uint64(7)).Convert(t), true
	case reflect.String:
		return reflect.ValueOf("x").Convert(t), true
	case reflect.Map:
		m := reflect.MakeMap(t)
		kv, ok := sampleFor(t.Key())
		if !ok {
			return reflect.Value{}, false
		}
		var ev reflect.Value
		if t.Elem().Kind() == reflect.Struct && t.Elem().NumField() == 0 {
			ev = reflect.Zero(t.Elem()) // set-style map[...]struct{}
		} else {
			ev, ok = sampleFor(t.Elem())
			if !ok {
				return reflect.Value{}, false
			}
		}
		m.SetMapIndex(kv, ev)
		return m, true
	case reflect.Struct:
		v := reflect.New(t).Elem()
		for i := 0; i < t.NumField(); i++ {
			fv, ok := sampleFor(t.Field(i).Type)
			if !ok {
				return reflect.Value{}, false
			}
			v.Field(i).Set(fv)
		}
		return v, true
	}
	return reflect.Value{}, false
}

// TestOptionsKeyCoversEveryField enumerates natix.Options by reflection and
// requires that setting any single field to a non-zero value changes the
// canonical key. This is the cache-correctness property: two option sets
// that compile different plans must never collide on one cache entry. When
// a new Options field lands (as EnablePathIndex did), this test
// fails until OptionsKey encodes it.
func TestOptionsKeyCoversEveryField(t *testing.T) {
	base := OptionsKey(natix.Options{})
	ot := reflect.TypeOf(natix.Options{})
	for i := 0; i < ot.NumField(); i++ {
		f := ot.Field(i)
		sv, ok := sampleFor(f.Type)
		if !ok {
			t.Fatalf("field %s: no sample for type %s — extend sampleFor and OptionsKey together", f.Name, f.Type)
		}
		var o natix.Options
		reflect.ValueOf(&o).Elem().Field(i).Set(sv)
		if got := OptionsKey(o); got == base {
			t.Errorf("field %s: OptionsKey ignores it (key %q unchanged)", f.Name, got)
		}
	}
}

// TestOptionsKeyStable pins the canonicalization property the cache relies
// on: keys are deterministic across map iteration orders.
func TestOptionsKeyStable(t *testing.T) {
	mk := func() natix.Options {
		return natix.Options{
			Namespaces: map[string]string{"a": "urn:a", "b": "urn:b", "c": "urn:c"},
			Vars:       map[string]struct{}{"x": {}, "y": {}, "z": {}},
		}
	}
	ref := OptionsKey(mk())
	for i := 0; i < 50; i++ {
		if got := OptionsKey(mk()); got != ref {
			t.Fatalf("OptionsKey unstable: %q vs %q", got, ref)
		}
	}
}

// TestOptionsKeyPinned pins the key text itself: plan-cache and flight
// keys carry it, so a change to OptionsKey must change these literals on
// purpose.
func TestOptionsKeyPinned(t *testing.T) {
	for _, c := range []struct {
		opt  natix.Options
		want string
	}{
		{natix.Options{}, `m=0`},
		{natix.Options{Mode: natix.Canonical}, `m=1`},
		{natix.Options{
			Namespaces: map[string]string{"p": "urn:p", "a": "urn:a"},
			Vars:       map[string]struct{}{"y": {}, "x": {}},
		}, `m=0;ns="a":"urn:a","p":"urn:p";vars="x,y"`},
		{natix.Options{Limits: natix.Limits{MaxTuples: 1, MaxBytes: 2, MaxSteps: 3}}, `m=0;lim=1,2,3`},
		{natix.Options{
			DisableDupElimPush: true, DisableStacked: true, DisableMemoX: true, DisablePredReorder: true,
			DisableSmartAggregation: true, DisablePathRewrite: true, EnablePathIndex: true, EnableSequenceAnalysis: true,
		}, `m=0;f=dsxparPQ`},
	} {
		if got := OptionsKey(c.opt); got != c.want {
			t.Errorf("OptionsKey(%+v) = %q, want %q", c.opt, got, c.want)
		}
	}
}
