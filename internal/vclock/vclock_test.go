package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// m abbreviates clock literals: FromMap(m{"a": 1}).
type m = map[string]uint64

func TestTickAndGet(t *testing.T) {
	v := New()
	if got := v.Get("a"); got != 0 {
		t.Fatalf("Get on empty clock = %d, want 0", got)
	}
	v.Tick("a")
	v.Tick("a")
	v.Tick("b")
	if got := v.Get("a"); got != 2 {
		t.Errorf("a = %d, want 2", got)
	}
	if got := v.Get("b"); got != 1 {
		t.Errorf("b = %d, want 1", got)
	}
}

func TestCompareTable(t *testing.T) {
	tests := []struct {
		name string
		a, b VC
		want Ordering
	}{
		{"both empty", New(), New(), Equal},
		{"identical", FromMap(m{"a": 1, "b": 2}), FromMap(m{"a": 1, "b": 2}), Equal},
		{"simple before", FromMap(m{"a": 1}), FromMap(m{"a": 2}), Before},
		{"simple after", FromMap(m{"a": 3}), FromMap(m{"a": 2}), After},
		{"subset before", FromMap(m{"a": 1}), FromMap(m{"a": 1, "b": 1}), Before},
		{"superset after", FromMap(m{"a": 1, "b": 1}), FromMap(m{"a": 1}), After},
		{"concurrent disjoint", FromMap(m{"a": 1}), FromMap(m{"b": 1}), Concurrent},
		{"concurrent crossed", FromMap(m{"a": 2, "b": 1}), FromMap(m{"a": 1, "b": 2}), Concurrent},
		{"zero component equals absent", FromMap(m{"a": 1, "b": 0}), FromMap(m{"a": 1}), Equal},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("Compare(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	inverse := map[Ordering]Ordering{Equal: Equal, Before: After, After: Before, Concurrent: Concurrent}
	pairs := []struct{ a, b VC }{
		{FromMap(m{"a": 1}), FromMap(m{"a": 2})},
		{FromMap(m{"a": 1, "b": 5}), FromMap(m{"a": 2, "b": 3})},
		{New(), FromMap(m{"x": 1})},
	}
	for _, p := range pairs {
		ab, ba := p.a.Compare(p.b), p.b.Compare(p.a)
		if inverse[ab] != ba {
			t.Errorf("Compare(%v,%v)=%v but Compare(%v,%v)=%v", p.a, p.b, ab, p.b, p.a, ba)
		}
	}
}

func TestMerge(t *testing.T) {
	a := FromMap(m{"a": 3, "b": 1})
	b := FromMap(m{"b": 4, "c": 2})
	a.Merge(b)
	want := FromMap(m{"a": 3, "b": 4, "c": 2})
	if a.Compare(want) != Equal {
		t.Errorf("Merge = %v, want %v", a, want)
	}
	// b must be unchanged.
	if b.Compare(FromMap(m{"b": 4, "c": 2})) != Equal {
		t.Errorf("Merge mutated argument: %v", b)
	}
}

func TestCopyIndependence(t *testing.T) {
	a := FromMap(m{"a": 1})
	c := a.Copy()
	c.Tick("a")
	if a.Get("a") != 1 {
		t.Errorf("Copy is aliased: original changed to %v", a)
	}
}

func TestDominatesOrEqual(t *testing.T) {
	if !FromMap(m{"a": 2, "b": 1}).DominatesOrEqual(FromMap(m{"a": 2})) {
		t.Error("superset should dominate")
	}
	if FromMap(m{"a": 1}).DominatesOrEqual(FromMap(m{"a": 2})) {
		t.Error("smaller clock must not dominate")
	}
	if FromMap(m{"a": 1}).DominatesOrEqual(FromMap(m{"b": 1})) {
		t.Error("concurrent clocks must not dominate")
	}
}

func TestString(t *testing.T) {
	v := FromMap(m{"b": 2, "a": 1})
	if got, want := v.String(), "{a:1 b:2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := New().String(), "{}"; got != want {
		t.Errorf("empty String = %q, want %q", got, want)
	}
}

func TestOrderingString(t *testing.T) {
	for o, want := range map[Ordering]string{Equal: "equal", Before: "before", After: "after", Concurrent: "concurrent", Ordering(42): "Ordering(42)"} {
		if got := o.String(); got != want {
			t.Errorf("Ordering(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

// randVC builds a small random clock over a fixed ID universe, for
// property-based tests.
func randVC(r *rand.Rand) VC {
	ids := []string{"p0", "p1", "p2", "p3"}
	v := New()
	for _, id := range ids {
		if r.Intn(2) == 1 {
			v.Set(id, uint64(r.Intn(5)))
		}
	}
	return v
}

func TestQuickMergeIsLUB(t *testing.T) {
	// Property: Merge produces the least upper bound — it dominates both
	// inputs, and any clock dominating both inputs dominates the merge.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r), randVC(r)
		mg := a.Copy()
		mg.Merge(b)
		if !mg.DominatesOrEqual(a) || !mg.DominatesOrEqual(b) {
			return false
		}
		// Upper bound u = merge plus arbitrary extra ticks.
		u := mg.Copy()
		u.Tick("p0")
		return u.DominatesOrEqual(mg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareConsistentWithDominates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r), randVC(r)
		switch a.Compare(b) {
		case Equal:
			return a.DominatesOrEqual(b) && b.DominatesOrEqual(a)
		case Before:
			return b.DominatesOrEqual(a) && !a.DominatesOrEqual(b)
		case After:
			return a.DominatesOrEqual(b) && !b.DominatesOrEqual(a)
		case Concurrent:
			return !a.DominatesOrEqual(b) && !b.DominatesOrEqual(a)
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTickStrictlyAfter(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randVC(r)
		before := a.Copy()
		a.Tick("p1")
		return before.Compare(a) == Before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLamport(t *testing.T) {
	var l Lamport
	if l.Now() != 0 {
		t.Fatalf("zero Lamport Now = %d", l.Now())
	}
	if l.Tick() != 1 || l.Tick() != 2 {
		t.Fatal("Tick sequence wrong")
	}
	if got := l.Witness(10); got != 11 {
		t.Errorf("Witness(10) = %d, want 11", got)
	}
	if got := l.Witness(3); got != 12 {
		t.Errorf("Witness(3) after 11 = %d, want 12", got)
	}
}

func TestLamportWitnessMonotonic(t *testing.T) {
	f := func(vals []uint16) bool {
		var l Lamport
		prev := uint64(0)
		for _, v := range vals {
			now := l.Witness(uint64(v))
			if now <= prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
