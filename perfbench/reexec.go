package main

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/scroll"
	"repro/internal/vclock"
)

// job is one schedule a workload executed, kept for re-execution.
type job struct {
	spec       apps.AppSpec
	buggy      bool
	seed       int64
	checkEvery uint64
	sched      chaos.Schedule
}

// maxReexec caps the re-execution sample; larger job lists are strided so
// the sample spans the whole workload.
const maxReexec = 768

func sample(jobs []job) []job {
	if len(jobs) <= maxReexec {
		return jobs
	}
	out := make([]job, 0, maxReexec)
	for i := 0; i < maxReexec; i++ {
		out = append(out, jobs[i*len(jobs)/maxReexec])
	}
	return out
}

// reexecStats are the counters a re-execution pass reads off its runs.
type reexecStats struct {
	runs, steps, earlyExits   int64
	checkpoints, rollbacks    int64
	records, clockOps         int64
	monitorCalls, handlerCall int64
}

// reexecute replays each job without the clock probe through the public
// simulator seams — dsim.New/Reset, AddProcess, SetStepMonitor, Run,
// Scrolls and scroll.Fingerprinter — with the traced application spec, so
// the layers inside a run (simulator loop, handlers, state codec,
// invariant monitor, fault injection, scroll fingerprinting) each get a
// span. Every re-execution must reproduce the digest and violations of the
// same probe-free run through chaos.Runner; a mismatch is returned as an
// error.
func reexecute(t *tracer, jobs []job) (*reexecStats, error) {
	st := &reexecStats{}
	var sim *dsim.Sim
	var fp scroll.Fingerprinter
	for i, j := range jobs {
		t.run = i + 1
		traced := tracedSpec(j.spec, t)
		cfg := j.spec.Config(j.buggy)
		cfg.Seed = j.seed
		ms := traced.Make(j.buggy)
		ids := make([]string, 0, len(ms))
		for id := range ms {
			ids = append(ids, id)
		}
		sort.Strings(ids)

		t.begin(kSimSetup)
		if sim == nil {
			sim = dsim.New(cfg)
		} else {
			sim.Reset(cfg)
		}
		for _, id := range ids {
			sim.AddProcess(id, ms[id])
		}
		t.end()

		t.record(kInject, func() { j.sched.Compile(sim.Procs()).Apply(sim) })
		mon := fault.NewMonitor(traced.Invariants(j.buggy)...)
		if j.checkEvery > 0 {
			sim.SetStepMonitor(j.checkEvery, func() bool {
				st.monitorCalls++
				t.begin(kMonitor)
				v := mon.AnyViolated(sim)
				t.end()
				return v
			})
		}
		handlersBefore := t.count(kHandler)
		var stats dsim.Stats
		t.record(kSimRun, func() { stats = sim.Run() })
		st.handlerCall += t.count(kHandler) - handlersBefore

		var violations []string
		st.monitorCalls++
		t.record(kMonitor, func() {
			for _, v := range mon.Check(sim) {
				violations = append(violations, v.Invariant)
			}
		})
		var digest string
		scrolls := sim.Scrolls()
		t.record(kFingerprint, func() { digest, _ = fp.Fingerprint(scrolls, chaos.ShapeBucket) })

		recs := make([][]scroll.Record, len(scrolls))
		for k, sc := range scrolls {
			recs[k] = sc.Records()
			st.records += int64(len(recs[k]))
		}
		t.record(kClock, func() { st.clockOps += replayClocks(scrolls, recs) })
		t.record(kAppend, func() { replayAppends(scrolls, recs) })

		st.runs++
		st.steps += int64(stats.Steps)
		st.checkpoints += int64(stats.Checkpoints)
		st.rollbacks += int64(stats.Rollbacks)
		if stats.EarlyExit {
			st.earlyExits++
		}

		ref := chaos.Runner{Spec: j.spec, Buggy: j.buggy, Seed: j.seed, CheckEvery: j.checkEvery}.Run(j.sched)
		if ref.Digest != digest || !reflect.DeepEqual(ref.Violations, violations) {
			return nil, fmt.Errorf("re-execution %d of %s diverged from chaos.Runner: digest %.12s vs %.12s, violations %v vs %v",
				i, j.spec.Name, digest, ref.Digest, violations, ref.Violations)
		}
	}
	t.run = 0
	return st, nil
}

// replayClocks applies, per process and in scroll order, the vector-clock
// operations the simulator performs to produce each record's clock: a
// delivery merges the message clock and ticks, a send or timer fire ticks,
// and every clock-advancing record takes one snapshot copy. It returns the
// number of operations applied.
func replayClocks(scrolls []*scroll.Scroll, recs [][]scroll.Record) int64 {
	var ops int64
	for k, sc := range scrolls {
		proc := sc.Proc()
		local := vclock.New()
		for i := range recs[k] {
			r := &recs[k][i]
			switch r.Kind {
			case scroll.KindRecv:
				local.Merge(r.Clock)
				local.Tick(proc)
				_ = local.Copy()
				ops += 3
			case scroll.KindSend, scroll.KindCustom:
				local.Tick(proc)
				_ = local.Copy()
				ops += 2
			}
		}
	}
	return ops
}

// replayAppends appends every record of a run into fresh in-memory scrolls.
func replayAppends(scrolls []*scroll.Scroll, recs [][]scroll.Record) {
	for k, sc := range scrolls {
		out := scroll.NewMemory(sc.Proc())
		for _, r := range recs[k] {
			_, _ = out.Append(r) // an in-memory scroll cannot fail to append
		}
	}
}
