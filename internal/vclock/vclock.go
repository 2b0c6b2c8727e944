// Package vclock implements logical clocks for distributed executions:
// Lamport scalar clocks and vector clocks.
//
// FixD uses vector clocks to timestamp checkpoints and messages so that the
// Time Machine (paper §3.2) and the recovery-line algorithms (paper §4.2,
// Fig. 6) can decide whether two local states are causally consistent.
//
// # Dense representation
//
// A VC is a pointer-sized handle to a slice of counts indexed by a Table:
// a sorted, immutable list of process IDs. Tables are shared — the
// simulator lays every process clock of a run over one table — so clocks
// on the same table tick, merge, compare and encode slot by slot, with no
// hashing and no key sort. Clocks on different tables (decoded scrolls,
// the live backend, hand-built test clocks) still interoperate: every
// operation falls back to a name-wise walk of the two sorted ID lists, and
// a mutation that needs a process the clock's table lacks moves the clock
// onto a wider table.
//
// A zero count means absent: {a:1 b:0} and {a:1} are the same clock, in
// comparisons, renderings and encodings alike.
//
// Snapshots are immutable by convention. Scroll records, queued messages,
// checkpoints and fault records keep the clock they were given and never
// mutate it, so a snapshot may be shared by every record taken between two
// ticks, and an Arena may carve snapshots out of shared chunks.
package vclock

import (
	"encoding/json"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Table is a sorted, duplicate-free, immutable list of process IDs: the
// index space of dense clocks. The nil *Table is the empty table.
type Table struct {
	ids []string
}

// NewTable returns a table over ids, which are copied, sorted and
// deduplicated.
func NewTable(ids ...string) *Table {
	s := slices.Clone(ids)
	sort.Strings(s)
	return &Table{ids: slices.Compact(s)}
}

// Len returns the number of processes in the table.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return len(t.ids)
}

// Matches reports whether the table lists exactly ids, which must be
// sorted and duplicate-free.
func (t *Table) Matches(ids []string) bool {
	return t != nil && slices.Equal(t.ids, ids)
}

// index returns id's slot, or -1 when the table lacks it. Small tables —
// a run's handful of processes — are scanned linearly: equality tests on
// IDs that usually share their backing bytes beat ordered comparisons.
func (t *Table) index(id string) int {
	if t == nil {
		return -1
	}
	if len(t.ids) <= 16 {
		for i, s := range t.ids {
			if s == id {
				return i
			}
		}
		return -1
	}
	if i := sort.SearchStrings(t.ids, id); i < len(t.ids) && t.ids[i] == id {
		return i
	}
	return -1
}

// list returns the table's process IDs (read-only).
func (t *Table) list() []string {
	if t == nil {
		return nil
	}
	return t.ids
}

// VC is a vector clock: for each process, the count of events that process
// has performed, as known to the clock's owner.
//
// The zero value is a usable, empty clock. Copying a VC copies the handle,
// not the counts: like a map, both copies see later mutations (use Copy for
// an independent clock). VC values are not safe for concurrent mutation;
// callers synchronize externally or work on copies. VCs are deliberately
// not comparable with ==: use Compare for causal equality and Same for
// storage identity.
type VC struct {
	_ [0]func()
	c *counts
}

// counts is a clock's storage: n[i] is the count of process tab.ids[i].
type counts struct {
	tab *Table
	n   []uint64
}

// New returns an empty vector clock.
func New() VC { return VC{} }

// on returns an empty clock laid out over t.
func on(t *Table) VC {
	return VC{c: &counts{tab: t, n: make([]uint64, t.Len())}}
}

// Make returns the clock with count ns[i] for process ids[i]. ids need
// not be sorted; for a repeated ID the last count wins. It panics if the
// slices' lengths differ.
func Make(ids []string, ns []uint64) VC {
	if len(ids) != len(ns) {
		panic("vclock: Make with mismatched ids and counts")
	}
	if len(ids) == 0 {
		return VC{}
	}
	v := on(NewTable(ids...))
	for i, id := range ids {
		v.c.n[v.c.tab.index(id)] = ns[i]
	}
	return v
}

// FromMap returns the clock with the given per-process counts.
func FromMap(m map[string]uint64) VC {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ns := make([]uint64, len(ids))
	for i, id := range ids {
		ns[i] = m[id]
	}
	return Make(ids, ns)
}

// Get returns the component for process id (zero if absent).
func (v VC) Get(id string) uint64 {
	if v.c == nil {
		return 0
	}
	if i := v.c.tab.index(id); i >= 0 {
		return v.c.n[i]
	}
	return 0
}

// Set assigns the component for process id.
func (v *VC) Set(id string, n uint64) {
	if n == 0 && v.Get(id) == 0 {
		return // already absent
	}
	i := v.slot(id)
	v.c.n[i] = n
}

// Tick increments the component for process id.
func (v *VC) Tick(id string) {
	i := v.slot(id)
	v.c.n[i]++
}

// slot returns id's index in v's storage, first moving v onto a table that
// includes id if its own does not.
func (v *VC) slot(id string) int {
	if v.c == nil {
		v.c = &counts{}
	}
	if i := v.c.tab.index(id); i >= 0 {
		return i
	}
	v.c.relayout(NewTable(append(slices.Clone(v.c.tab.list()), id)...))
	return v.c.tab.index(id)
}

// relayout moves the counts onto table t, which must include every
// process with a non-zero count. Storage is replaced, not reused, so
// snapshots sharing the old slice are unaffected.
func (c *counts) relayout(t *Table) {
	n := make([]uint64, t.Len())
	for i, id := range c.tab.list() {
		if c.n[i] != 0 {
			n[t.index(id)] = c.n[i]
		}
	}
	c.tab, c.n = t, n
}

// Rebase lays v out over table t, keeping every count. If v has a
// non-zero count for a process t lacks, v moves onto the union of t and
// its own processes instead. Rebasing onto v's own table is free.
func (v *VC) Rebase(t *Table) {
	if v.c == nil {
		*v = on(t)
		return
	}
	if v.c.tab != t {
		v.c.relayout(covering(t, v.nonzeroIDs()))
	}
}

// covering returns t if it includes every one of ids, else a new table
// over t's processes and ids.
func covering(t *Table, ids []string) *Table {
	for _, id := range ids {
		if t.index(id) < 0 {
			return NewTable(append(slices.Clone(t.list()), ids...)...)
		}
	}
	return t
}

// nonzeroIDs returns the processes with a non-zero count, in order.
func (v VC) nonzeroIDs() []string {
	var ids []string
	for id := range v.All() {
		ids = append(ids, id)
	}
	return ids
}

// Clear sets every component to zero, keeping v's storage and table.
func (v VC) Clear() {
	if v.c != nil {
		clear(v.c.n)
	}
}

// Copy returns an independent copy of the clock on the same table.
func (v VC) Copy() VC {
	if v.c == nil {
		return VC{}
	}
	return VC{c: &counts{tab: v.c.tab, n: slices.Clone(v.c.n)}}
}

// Merge sets v to the component-wise maximum of v and o — the "receive"
// rule of vector clocks.
func (v *VC) Merge(o VC) {
	if o.c == nil {
		return
	}
	if v.c == nil {
		v.c = &counts{}
	}
	if v.c.tab != o.c.tab {
		if !v.IsZero() {
			v.mergeByName(o)
			return
		}
		v.c.tab, v.c.n = o.c.tab, make([]uint64, len(o.c.n))
	}
	dst := v.c.n[:len(o.c.n)]
	for i, n := range o.c.n {
		if n > dst[i] {
			dst[i] = n
		}
	}
}

// mergeByName merges a clock on a different table: v first moves onto a
// table covering o's processes if its own does not, then takes the
// maximum name by name.
func (v *VC) mergeByName(o VC) {
	if t := covering(v.c.tab, o.nonzeroIDs()); t != v.c.tab {
		v.c.relayout(t)
	}
	for id, n := range o.All() {
		if i := v.c.tab.index(id); n > v.c.n[i] {
			v.c.n[i] = n
		}
	}
}

// IsZero reports whether every component is zero — the empty clock.
func (v VC) IsZero() bool {
	if v.c == nil {
		return true
	}
	for _, n := range v.c.n {
		if n != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of processes with a non-zero component.
func (v VC) Len() int {
	if v.c == nil {
		return 0
	}
	k := 0
	for _, n := range v.c.n {
		if n != 0 {
			k++
		}
	}
	return k
}

// All iterates the non-zero components in ascending process-ID order.
func (v VC) All() iter.Seq2[string, uint64] {
	return func(yield func(string, uint64) bool) {
		if v.c == nil {
			return
		}
		for i, n := range v.c.n {
			if n != 0 && !yield(v.c.tab.ids[i], n) {
				return
			}
		}
	}
}

// Same reports whether v and o share storage — the same clock, not merely
// equal ones. Two empty zero-value clocks are the same. A reader that
// caches something derived from an immutable snapshot can key the cache on
// Same instead of re-deriving it.
func (v VC) Same(o VC) bool { return v.c == o.c }

// Ordering is the causal relationship between two vector clocks.
type Ordering int

// Possible causal relationships.
const (
	Equal      Ordering = iota // identical clocks
	Before                     // strictly happens-before
	After                      // strictly happens-after
	Concurrent                 // causally unrelated
)

// String returns a human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Compare returns the causal ordering of v relative to o.
func (v VC) Compare(o VC) Ordering {
	var vLess, oLess bool // v has a strictly smaller / larger component
	note := func(n, m uint64) {
		switch {
		case n < m:
			vLess = true
		case n > m:
			oLess = true
		}
	}
	switch {
	case v.c != nil && o.c != nil && v.c.tab == o.c.tab:
		for i, n := range v.c.n {
			note(n, o.c.n[i])
		}
	default:
		// Name-wise: walk both sorted ID lists; absent counts are zero.
		vi, oi := v.ids(), o.ids()
		i, j := 0, 0
		for i < len(vi) || j < len(oi) {
			switch {
			case j == len(oi) || (i < len(vi) && vi[i] < oi[j]):
				note(v.c.n[i], 0)
				i++
			case i == len(vi) || oi[j] < vi[i]:
				note(0, o.c.n[j])
				j++
			default:
				note(v.c.n[i], o.c.n[j])
				i, j = i+1, j+1
			}
		}
	}
	switch {
	case vLess && oLess:
		return Concurrent
	case vLess:
		return Before
	case oLess:
		return After
	default:
		return Equal
	}
}

// ids returns the IDs of v's table (read-only).
func (v VC) ids() []string {
	if v.c == nil {
		return nil
	}
	return v.c.tab.list()
}

// HappensBefore reports whether v strictly precedes o causally.
func (v VC) HappensBefore(o VC) bool { return v.Compare(o) == Before }

// ConcurrentWith reports whether v and o are causally unrelated.
func (v VC) ConcurrentWith(o VC) bool { return v.Compare(o) == Concurrent }

// DominatesOrEqual reports whether v >= o component-wise (v "knows about"
// everything o knows about). This is the consistency test used when picking
// recovery lines: a cut is consistent iff each member's clock is not exceeded
// by what any peer believes about it.
func (v VC) DominatesOrEqual(o VC) bool {
	c := v.Compare(o)
	return c == Equal || c == After
}

// String renders the clock deterministically, e.g. "{a:1 b:3}".
func (v VC) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for id, n := range v.All() {
		if b.Len() > 1 {
			b.WriteByte(' ')
		}
		b.WriteString(id)
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(n, 10))
	}
	b.WriteByte('}')
	return b.String()
}

// MarshalJSON renders the clock as a JSON object of its non-zero
// components in ascending ID order, e.g. {"a":1,"b":3}.
func (v VC) MarshalJSON() ([]byte, error) {
	buf := []byte{'{'}
	for id, n := range v.All() {
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		key, err := json.Marshal(id)
		if err != nil {
			return nil, err
		}
		buf = append(buf, key...)
		buf = append(buf, ':')
		buf = strconv.AppendUint(buf, n, 10)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON parses a JSON object of per-process counts; null is the
// empty clock.
func (v *VC) UnmarshalJSON(b []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*v = FromMap(m)
	return nil
}

// Arena carves clock copies out of shared chunks, so a copy costs no
// allocation of its own: one chunk serves many snapshots. Arena copies are
// ordinary clocks. An Arena is never rewound — a chunk is released to the
// GC when the last clock carved from it goes — so handing out its copies
// is always safe. The zero Arena is ready to use; it is not safe for
// concurrent use.
type Arena struct {
	hdrs  []counts
	words []uint64
}

// Chunk sizes: 4 KiB of headers and 4 KiB of counts.
const (
	arenaHdrs  = 128
	arenaWords = 512
)

// Copy returns an independent copy of v carved from the arena.
func (a *Arena) Copy(v VC) VC {
	if v.c == nil {
		return VC{}
	}
	k := len(v.c.n)
	if len(a.hdrs) == cap(a.hdrs) {
		a.hdrs = make([]counts, 0, arenaHdrs)
	}
	if cap(a.words)-len(a.words) < k {
		a.words = make([]uint64, 0, max(arenaWords, k))
	}
	start := len(a.words)
	a.words = append(a.words, v.c.n...)
	a.hdrs = append(a.hdrs, counts{tab: v.c.tab, n: a.words[start:len(a.words):len(a.words)]})
	return VC{c: &a.hdrs[len(a.hdrs)-1]}
}

// Lamport is a scalar logical clock (Lamport 1978). It provides a total
// order extension of happens-before, used by the Scroll to impose a global
// order on merged log records (paper §2.2).
type Lamport struct {
	t uint64
}

// Now returns the current clock value without advancing it.
func (l *Lamport) Now() uint64 { return l.t }

// Tick advances the clock for a local event and returns the new value.
func (l *Lamport) Tick() uint64 {
	l.t++
	return l.t
}

// Witness merges an observed remote timestamp and advances the clock,
// implementing the Lamport receive rule; it returns the new value.
func (l *Lamport) Witness(remote uint64) uint64 {
	if remote > l.t {
		l.t = remote
	}
	l.t++
	return l.t
}
