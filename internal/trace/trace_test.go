package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

// buildPingPong constructs a two-process trace:
//
//	A: send m1 ----> B: recv m1, send m2
//	A: recv m2
func buildPingPong() *Trace {
	t := New()
	vA := vclock.New()
	vA.Tick("A")
	t.Append(Event{Proc: "A", Seq: 0, Kind: Send, MsgID: "m1", Peer: "B", Clock: vA.Copy(), Lamport: 1})
	vB := vA.Copy()
	vB.Tick("B")
	t.Append(Event{Proc: "B", Seq: 0, Kind: Receive, MsgID: "m1", Peer: "A", Clock: vB.Copy(), Lamport: 2})
	vB.Tick("B")
	t.Append(Event{Proc: "B", Seq: 1, Kind: Send, MsgID: "m2", Peer: "A", Clock: vB.Copy(), Lamport: 3})
	vA2 := vA.Copy()
	vA2.Merge(vB)
	vA2.Tick("A")
	t.Append(Event{Proc: "A", Seq: 1, Kind: Receive, MsgID: "m2", Peer: "B", Clock: vA2, Lamport: 4})
	return t
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Internal: "internal", Send: "send", Receive: "recv", Checkpoint: "ckpt", Fault: "fault", Kind(9): "Kind(9)"}
	for k, w := range want {
		if got := k.String(); got != w {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, w)
		}
	}
}

func TestByProcess(t *testing.T) {
	tr := buildPingPong()
	m := tr.ByProcess()
	if len(m["A"]) != 2 || len(m["B"]) != 2 {
		t.Fatalf("ByProcess lengths = A:%d B:%d, want 2,2", len(m["A"]), len(m["B"]))
	}
	if m["A"][0].Seq != 0 || m["A"][1].Seq != 1 {
		t.Error("A events not in local order")
	}
}

func TestTotalOrderRespectsHappensBefore(t *testing.T) {
	tr := buildPingPong()
	order := tr.TotalOrder()
	pos := make(map[string]int)
	for i, e := range order {
		pos[e.ID()] = i
	}
	for _, a := range tr.Events() {
		for _, b := range tr.Events() {
			if HappensBefore(a, b) && pos[a.ID()] > pos[b.ID()] {
				t.Errorf("total order violates happens-before: %s after %s", a.ID(), b.ID())
			}
		}
	}
}

func TestCutConsistency(t *testing.T) {
	tr := buildPingPong()
	tests := []struct {
		name string
		cut  Cut
		want bool
	}{
		{"empty", Cut{}, true},
		{"full", Cut{"A": 2, "B": 2}, true},
		{"send without recv (in transit)", Cut{"A": 1, "B": 0}, true},
		{"recv without send (orphan)", Cut{"A": 0, "B": 1}, false},
		{"orphan m2", Cut{"A": 2, "B": 1}, false},
		{"consistent middle", Cut{"A": 1, "B": 2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.cut.Consistent(tr); got != tt.want {
				t.Errorf("Consistent(%v) = %v, want %v", tt.cut, got, tt.want)
			}
		})
	}
}

func TestInTransit(t *testing.T) {
	tr := buildPingPong()
	got := Cut{"A": 1, "B": 0}.InTransit(tr)
	if len(got) != 1 || got[0] != "m1" {
		t.Errorf("InTransit = %v, want [m1]", got)
	}
	if got := (Cut{"A": 2, "B": 2}).InTransit(tr); len(got) != 0 {
		t.Errorf("full cut InTransit = %v, want empty", got)
	}
}

func TestMaxConsistentCut(t *testing.T) {
	tr := buildPingPong()
	// Limit includes B's receive of m2... B never receives m2; orphan case is
	// A receiving m2 whose send by B is excluded.
	limit := Cut{"A": 2, "B": 1}
	got := MaxConsistentCut(tr, limit)
	if !got.Consistent(tr) {
		t.Fatalf("MaxConsistentCut returned inconsistent cut %v", got)
	}
	// A must have rolled back before its receive of m2 (seq 1).
	if got["A"] > 1 {
		t.Errorf("cut = %v, want A <= 1", got)
	}
	// B should not have been rolled back further than the limit.
	if got["B"] != 1 {
		t.Errorf("cut = %v, want B = 1", got)
	}
}

func TestMaxConsistentCutAlreadyConsistent(t *testing.T) {
	tr := buildPingPong()
	limit := Cut{"A": 2, "B": 2}
	got := MaxConsistentCut(tr, limit)
	if got["A"] != 2 || got["B"] != 2 {
		t.Errorf("consistent limit should be unchanged, got %v", got)
	}
}

// randTrace generates a random but causally well-formed trace over n
// processes: each message's receive appears after its send, with correct
// vector clocks.
func randTrace(r *rand.Rand, nproc, nmsg int) *Trace {
	tr := New()
	procs := make([]string, nproc)
	clocks := make([]vclock.VC, nproc)
	seqs := make([]int, nproc)
	var lam vclock.Lamport
	for i := range procs {
		procs[i] = string(rune('A' + i))
		clocks[i] = vclock.New()
	}
	type pending struct {
		id    string
		from  int
		clock vclock.VC
	}
	var inflight []pending
	msgN := 0
	for steps := 0; steps < nmsg*4; steps++ {
		switch r.Intn(3) {
		case 0: // send
			from := r.Intn(nproc)
			msgN++
			id := "m" + string(rune('0'+msgN%10)) + string(rune('a'+msgN/10))
			clocks[from].Tick(procs[from])
			tr.Append(Event{Proc: procs[from], Seq: seqs[from], Kind: Send, MsgID: id, Clock: clocks[from].Copy(), Lamport: lam.Tick()})
			seqs[from]++
			inflight = append(inflight, pending{id, from, clocks[from].Copy()})
		case 1: // receive
			if len(inflight) == 0 {
				continue
			}
			i := r.Intn(len(inflight))
			msg := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			to := r.Intn(nproc)
			clocks[to].Merge(msg.clock)
			clocks[to].Tick(procs[to])
			tr.Append(Event{Proc: procs[to], Seq: seqs[to], Kind: Receive, MsgID: msg.id, Clock: clocks[to].Copy(), Lamport: lam.Witness(0)})
			seqs[to]++
		default: // internal
			p := r.Intn(nproc)
			clocks[p].Tick(procs[p])
			tr.Append(Event{Proc: procs[p], Seq: seqs[p], Kind: Internal, Clock: clocks[p].Copy(), Lamport: lam.Tick()})
			seqs[p]++
		}
	}
	return tr
}

func TestQuickMaxConsistentCutIsConsistentAndMaximal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randTrace(r, 2+r.Intn(3), 5+r.Intn(10))
		limit := Cut{}
		for p, evs := range tr.ByProcess() {
			limit[p] = r.Intn(len(evs) + 1)
		}
		got := MaxConsistentCut(tr, limit)
		if !got.Consistent(tr) {
			return false
		}
		// Never exceeds the limit.
		for p, n := range got {
			if n > limit[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickFullCutOfWellFormedTraceConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randTrace(r, 3, 8)
		full := Cut{}
		for p, evs := range tr.ByProcess() {
			full[p] = len(evs)
		}
		return full.Consistent(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCutCloneAndString(t *testing.T) {
	c := Cut{"B": 2, "A": 1}
	d := c.Clone()
	d["A"] = 9
	if c["A"] != 1 {
		t.Error("Clone aliased")
	}
	if got, want := c.String(), "cut{A:1 B:2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
