package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/fault"
)

// spanKind names a layer boundary the traced run times. The tracer keys
// its aggregates by kind, so adding a boundary is one constant and one name.
type spanKind int

const (
	kRun         spanKind = iota // chaos.Runner.Run called by the benchmark
	kHandler                     // dsim.Machine callback (Init/OnMessage/OnTimer/OnRollback)
	kEncode                      // machine-state MarshalJSON
	kDecode                      // machine-state UnmarshalJSON
	kInvariant                   // fault.GlobalInvariant.Holds
	kMonitor                     // step-monitor or final invariant check (re-executions)
	kSimRun                      // dsim.Sim.Run (re-executions)
	kSimSetup                    // dsim.New/Reset + AddProcess (re-executions)
	kInject                      // Schedule.Compile + Plan.Apply (re-executions)
	kFingerprint                 // scroll.Fingerprinter.Fingerprint (re-executions)
	kAppend                      // scroll append replay (re-executions)
	kClock                       // vector-clock replay (re-executions)
	kFrontier                    // Frontier.NextBatch/Admit/Finish
	kShrink                      // chaos.Shrink or the frontier's shrink delegate
	kVerify                      // artifact JSON round trip + Verify
	kRepair                      // repair.Repair
	numKinds
)

var kindNames = [numKinds]string{
	"chaos.run", "apps.handler", "state.encode", "state.decode", "fault.invariant",
	"fault.monitor", "dsim.run", "dsim.setup", "fault.inject", "scroll.fingerprint",
	"scroll.append_replay", "vclock.replay", "chaos.frontier", "chaos.shrink",
	"chaos.verify", "repair",
}

// span is one closed interval at a layer boundary. Parent indexes the
// retained span slice (-1 for a root); Run is the benchmark-assigned id of
// the chaos run (or re-execution) the span belongs to, 0 outside runs.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

type frame struct {
	kind  spanKind
	start int64
	child int64 // time covered by closed child spans
	idx   int   // index in spans, -1 when not retained
}

type kindAgg struct {
	total, self int64 // ns
	count       int64
}

// maxSpans bounds the spans kept for the end-of-run dump. Aggregates cover
// every span; only retention is capped, so memory stays flat however many
// handler calls a run makes.
const maxSpans = 50_000

// tracer records spans around the benchmark's calls into each layer. It
// is single-goroutine by design: every traced stage runs on one worker, so
// a plain stack gives each span its parent, and self time is computed on
// close as the span's duration minus its closed children.
type tracer struct {
	base    time.Time
	stack   []frame
	agg     [numKinds]kindAgg
	spans   []span
	dropped int
	run     int // id stamped on new spans; set per chaos.run span or re-execution
	runSeq  int

	// encode attribution: state encodes under an open monitor span are the
	// monitor's, the rest are checkpoint encodes.
	monitorDepth  int
	ckptEncodeNS  int64
	ckptEncodeB   int64
	stateEncodeNS int64
	runDurations  []int64 // ns, one per kRun span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span of kind k. A nil tracer records nothing, so untraced
// code paths can call it unconditionally.
func (t *tracer) begin(k spanKind) {
	if t == nil {
		return
	}
	if k == kRun {
		t.runSeq++
		t.run = t.runSeq
	}
	f := frame{kind: k, start: t.now(), idx: -1}
	if len(t.spans) < maxSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		f.idx = len(t.spans)
		t.spans = append(t.spans, span{Name: kindNames[k], Start: f.start, Parent: parent, Run: t.run})
	} else {
		t.dropped++
	}
	if k == kMonitor {
		t.monitorDepth++
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost span and returns its duration in ns.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	end := t.now()
	dur := end - f.start
	a := &t.agg[f.kind]
	a.total += dur
	a.self += dur - f.child
	a.count++
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if f.idx >= 0 {
		t.spans[f.idx].End = end
	}
	switch f.kind {
	case kMonitor:
		t.monitorDepth--
	case kRun:
		t.runDurations = append(t.runDurations, dur)
		t.run = 0
	}
	return dur
}

// record runs fn inside a span of kind k.
func (t *tracer) record(k spanKind, fn func()) {
	t.begin(k)
	fn()
	t.end()
}

func (t *tracer) total(k spanKind) float64 { return float64(t.agg[k].total) / 1e9 }
func (t *tracer) self(k spanKind) float64  { return float64(t.agg[k].self) / 1e9 }
func (t *tracer) count(k spanKind) int64   { return t.agg[k].count }

// writeSpans dumps the retained spans as JSON lines, once, at the end.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSpec wraps an application spec so the calls the simulator makes
// into the application layer are timed from outside the program: Make
// returns timing machine wrappers whose State forwards the JSON codec, and
// every invariant's Holds is timed. The wrappers are transparent — same
// bytes in and out — which the traced run proves by reproducing the
// untraced report digest.
func tracedSpec(spec apps.AppSpec, t *tracer) apps.AppSpec {
	out := spec
	out.Make = func(buggy bool) map[string]dsim.Machine {
		ms := spec.Make(buggy)
		for id, m := range ms {
			ms[id] = &timedMachine{m: m, t: t, st: timedState{t: t}}
		}
		return ms
	}
	out.Invariants = func(buggy bool) []fault.GlobalInvariant {
		invs := spec.Invariants(buggy)
		for i := range invs {
			holds := invs[i].Holds
			invs[i].Holds = func(states map[string]json.RawMessage) bool {
				t.begin(kInvariant)
				ok := holds(states)
				t.end()
				return ok
			}
		}
		return invs
	}
	return out
}

type timedMachine struct {
	m  dsim.Machine
	t  *tracer
	st timedState
}

func (w *timedMachine) State() any {
	w.st.inner = w.m.State()
	return &w.st
}

func (w *timedMachine) Init(ctx dsim.Context) {
	w.t.begin(kHandler)
	w.m.Init(ctx)
	w.t.end()
}

func (w *timedMachine) OnMessage(ctx dsim.Context, from string, payload []byte) {
	w.t.begin(kHandler)
	w.m.OnMessage(ctx, from, payload)
	w.t.end()
}

func (w *timedMachine) OnTimer(ctx dsim.Context, name string) {
	w.t.begin(kHandler)
	w.m.OnTimer(ctx, name)
	w.t.end()
}

func (w *timedMachine) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	w.t.begin(kHandler)
	w.m.OnRollback(ctx, info)
	w.t.end()
}

// timedState forwards the machine state's JSON codec, timing it. Encodes
// made while a monitor span is open are the invariant monitor's state
// reads; the others are checkpoint encodes. Decodes only happen on
// checkpoint restore.
type timedState struct {
	inner any
	t     *tracer
}

func (s *timedState) MarshalJSON() ([]byte, error) {
	s.t.begin(kEncode)
	b, err := json.Marshal(s.inner)
	dur := s.t.end()
	if s.t.monitorDepth > 0 {
		s.t.stateEncodeNS += dur
	} else {
		s.t.ckptEncodeNS += dur
		s.t.ckptEncodeB += int64(len(b))
	}
	return b, err
}

func (s *timedState) UnmarshalJSON(b []byte) error {
	s.t.begin(kDecode)
	err := json.Unmarshal(b, s.inner)
	s.t.end()
	return err
}
