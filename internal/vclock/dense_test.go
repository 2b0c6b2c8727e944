package vclock

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refVC is the reference model the dense clock must agree with: a plain
// map from process ID to count, where an absent key and a zero count are
// the same thing.
type refVC map[string]uint64

func (r refVC) tick(id string) { r[id]++ }

func (r refVC) merge(o refVC) {
	for id, n := range o {
		if n > r[id] {
			r[id] = n
		}
	}
}

func (r refVC) compare(o refVC) Ordering {
	var less, more bool
	for _, id := range unionIDs(r, o) {
		switch a, b := r[id], o[id]; {
		case a < b:
			less = true
		case a > b:
			more = true
		}
	}
	switch {
	case less && more:
		return Concurrent
	case less:
		return Before
	case more:
		return After
	}
	return Equal
}

func (r refVC) String() string {
	var parts []string
	for _, id := range unionIDs(r) {
		if r[id] != 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", id, r[id]))
		}
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func unionIDs(rs ...refVC) []string {
	seen := map[string]bool{}
	var ids []string
	for _, r := range rs {
		for id := range r {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)
	return ids
}

var propIDs = []string{"a", "b", "c", "d", "e", "p1", "p10", "p2"}

// randTable returns a random table over a subset of propIDs, or nil.
func randTable(r *rand.Rand) *Table {
	var ids []string
	for _, id := range propIDs {
		if r.Intn(2) == 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 && r.Intn(2) == 0 {
		return nil
	}
	return NewTable(ids...)
}

// randClock builds a random clock and its model, through one of the ways
// clocks come to exist: laid out on a table, from a map, ticked from zero,
// carved from an arena, or rebased onto another table.
func randClock(r *rand.Rand, arena *Arena) (VC, refVC) {
	ref := refVC{}
	var v VC
	switch r.Intn(5) {
	case 0:
		v = on(randTable(r))
	case 1:
		m := map[string]uint64{}
		for _, id := range propIDs {
			if r.Intn(3) == 0 {
				m[id] = uint64(r.Intn(4)) // zero counts included: absent
				ref[id] = m[id]
			}
		}
		return FromMap(m), ref
	case 2:
		// zero value
	case 3:
		w := on(randTable(r))
		for k := r.Intn(6); k > 0; k-- {
			id := propIDs[r.Intn(len(propIDs))]
			w.Tick(id)
			ref.tick(id)
		}
		return arena.Copy(w), ref
	case 4:
		v = on(randTable(r))
		for k := r.Intn(6); k > 0; k-- {
			id := propIDs[r.Intn(len(propIDs))]
			v.Tick(id)
			ref.tick(id)
		}
		v.Rebase(randTable(r))
		return v, ref
	}
	for k := r.Intn(6); k > 0; k-- {
		id := propIDs[r.Intn(len(propIDs))]
		n := uint64(r.Intn(5))
		v.Set(id, n)
		ref[id] = n
	}
	return v, ref
}

func agree(t *testing.T, step string, v VC, ref refVC) {
	t.Helper()
	if got, want := v.String(), ref.String(); got != want {
		t.Fatalf("%s: String %s, model %s", step, got, want)
	}
	for _, id := range append(propIDs, "zz") {
		if got, want := v.Get(id), ref[id]; got != want {
			t.Fatalf("%s: Get(%s) = %d, model %d (clock %v)", step, id, got, want, v)
		}
	}
	if got, want := v.IsZero(), ref.String() == "{}"; got != want {
		t.Fatalf("%s: IsZero %v on %v", step, got, v)
	}
}

// TestDenseMatchesMapModel: random clocks over mismatched tables agree
// with the map reference model under Tick, Merge, Compare, Get and String,
// and mutating one clock never shows through a copy or an arena snapshot.
func TestDenseMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var arena Arena
	for iter := 0; iter < 3000; iter++ {
		a, ra := randClock(r, &arena)
		b, rb := randClock(r, &arena)
		agree(t, "build a", a, ra)
		agree(t, "build b", b, rb)
		if got, want := a.Compare(b), ra.compare(rb); got != want {
			t.Fatalf("Compare(%v, %v) = %v, model %v", a, b, got, want)
		}
		snap, copied := arena.Copy(a), a.Copy()
		before := ra.String()
		switch r.Intn(3) {
		case 0:
			id := propIDs[r.Intn(len(propIDs))]
			a.Tick(id)
			ra.tick(id)
		case 1:
			a.Merge(b)
			ra.merge(rb)
			agree(t, "merge argument", b, rb)
		case 2:
			b.Merge(a)
			rb.merge(ra)
			agree(t, "merge argument", a, ra)
		}
		agree(t, "after op a", a, ra)
		agree(t, "after op b", b, rb)
		if snap.String() != before || copied.String() != before {
			t.Fatalf("mutation showed through: snapshot %v, copy %v, want %s", snap, copied, before)
		}
		if got, want := a.Compare(b), ra.compare(rb); got != want {
			t.Fatalf("after op: Compare(%v, %v) = %v, model %v", a, b, got, want)
		}
	}
}

// TestSharedTableSlotwise: clocks on one table merge and compare slot by
// slot, and a tick of a process the table lacks widens only that clock.
func TestSharedTableSlotwise(t *testing.T) {
	tab := NewTable("c", "a", "b", "a")
	if tab.Len() != 3 || !tab.Matches([]string{"a", "b", "c"}) {
		t.Fatalf("NewTable did not sort and deduplicate: %v", tab.list())
	}
	x, y := on(tab), on(tab)
	x.Tick("a")
	y.Tick("b")
	y.Tick("b")
	x.Merge(y)
	if x.String() != "{a:1 b:2}" || x.c.tab != tab {
		t.Fatalf("shared-table merge: %v", x)
	}
	x.Tick("zz")
	if x.c.tab == tab || y.c.tab != tab || x.String() != "{a:1 b:2 zz:1}" {
		t.Fatalf("widening tick: %v (table shared %v)", x, x.c.tab == tab)
	}
	if x.Compare(y) != After || y.Compare(x) != Before {
		t.Fatalf("cross-table compare: %v vs %v", x, y)
	}
}

// TestHandleSemantics: a copied handle aliases the clock, even across a
// widening tick; Copy and Same tell storage apart.
func TestHandleSemantics(t *testing.T) {
	a := on(NewTable("a"))
	alias := a
	a.Tick("b") // widens the table
	if alias.Get("b") != 1 || !alias.Same(a) {
		t.Fatalf("alias lost a widening tick: %v vs %v", alias, a)
	}
	c := a.Copy()
	if c.Same(a) || c.Compare(a) != Equal {
		t.Fatalf("Copy: same=%v compare=%v", c.Same(a), c.Compare(a))
	}
	var z1, z2 VC
	if !z1.Same(z2) {
		t.Error("two zero clocks must be the same (empty) clock")
	}
}

// TestJSONRoundTrip: the JSON form is the sorted object of non-zero
// components, and decodes back to an equal clock.
func TestJSONRoundTrip(t *testing.T) {
	v := FromMap(m{"b": 2, "a": 1, "z": 0, "<&>": 7})
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(map[string]uint64{"b": 2, "a": 1, "<&>": 7})
	if string(raw) != string(want) {
		t.Fatalf("Marshal = %s, want %s", raw, want)
	}
	var back VC
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Compare(v) != Equal {
		t.Fatalf("round trip: %v, want %v", back, v)
	}
	if err := json.Unmarshal([]byte("null"), &back); err != nil || !back.IsZero() {
		t.Fatalf("null: %v %v", back, err)
	}
	if raw, _ := json.Marshal(New()); string(raw) != "{}" {
		t.Fatalf("empty clock marshals to %s", raw)
	}
}

// TestMakeLastWins: Make accepts unsorted IDs and lets a repeat win.
func TestMakeLastWins(t *testing.T) {
	v := Make([]string{"b", "a", "b"}, []uint64{1, 2, 3})
	if v.String() != "{a:2 b:3}" {
		t.Fatalf("Make = %v", v)
	}
}

// TestArenaCopyAllocs: a warm arena copies without allocating.
func TestArenaCopyAllocs(t *testing.T) {
	var arena Arena
	v := on(NewTable("a", "b", "c"))
	v.Tick("b")
	arena.Copy(v)
	if n := testing.AllocsPerRun(100, func() { arena.Copy(v) }); n > 0.1 {
		t.Errorf("Arena.Copy allocates %.2f per copy", n)
	}
}
