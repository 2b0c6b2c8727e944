package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net"
	"strings"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/repair"
)

// Workload sizes. Each unit is a few seconds of single-worker work, so a
// run repeats it several times and reports medians.
const (
	matrixSeedsPerRun = 64   // matrix: 7 apps × 7 kinds × 64 seeds = 3136 cells
	pipelineSubSeeds  = 12   // pipeline: detect→fix at 12 derived seeds per unit
	pipelineCheck     = 256  // pipeline: early-exit invariant cadence
	shrinkBudget      = 200  // pipeline: chaos.Shrink budget per distinct failure
	fleetBudget       = 1000 // fleet: guided-search executions per application
	fleetCheck        = 256  // fleet: early-exit invariant cadence
)

// pipelineExtraKinds are the opt-in fault kinds the pipeline's search
// seeds its corpus with: rollback and crash-restart exercise checkpoint
// decode and restore, corruption and slow nodes widen the failure space.
var pipelineExtraKinds = []fault.Kind{fault.Rollback, fault.Corrupt, fault.SlowNode}

// kvstoreExtraKinds leave out Corrupt: a corrupted replication key makes
// the kvstore handler compute a negative heap offset and panic
// (checkpoint: negative offset -512; first at search seed 85), which
// aborts the whole search. Restore Corrupt here once the handler rejects
// such keys.
var kvstoreExtraKinds = []fault.Kind{fault.Rollback, fault.SlowNode}

// unit is the outcome of one repetition of a workload's fixed work.
type unit struct {
	runs   int    // chaos schedule executions, counted from the reports
	digest string // SHA-256 of the canonical (timing-free) report
	checks int    // output checks made
	failed int    // output checks that failed
	notes  []string

	jobs  []job              // traced only: schedules to re-execute
	layer map[string]float64 // traced only: per-layer metrics read off reports
}

func (u *unit) check(ok bool, format string, args ...any) {
	u.checks++
	if !ok {
		u.failed++
		u.notes = append(u.notes, fmt.Sprintf(format, args...))
	}
}

// workload is one named benchmark workload: set-up (timed on its own) and
// a unit of fixed work run untraced (t == nil) or traced.
type workload struct {
	name  string
	setup func(seed int64) error
	unit  func(seed int64, t *tracer) (*unit, error)
	// post runs once after the untraced repetitions: extra checks too
	// costly to repeat.
	post func(seed int64, u *unit) error
	// unmeasured lists per-layer metrics the traced run cannot reach on
	// this workload through public seams.
	unmeasured []string
}

var workloads = []*workload{
	{name: "matrix", setup: matrixSetup, unit: matrixUnit},
	{name: "pipeline", setup: pipelineSetup, unit: pipelineUnit},
	{name: "fleet", setup: fleetSetup, unit: fleetUnit, post: fleetPost,
		// The coordinator drives its frontier and the worker runs each
		// candidate inside the program; only the wire is outside.
		unmeasured: []string{"chaos.run_p50_us", "chaos.run_p99_us", "chaos.frontier_s"}},
}

func allApps() []apps.AppSpec { return append(apps.Registry(), apps.Zoo()...) }

func digestJSON(h hash.Hash, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	h.Write(b)
	return nil
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// timedRun executes one schedule, inside a chaos.run span when traced.
func timedRun(t *tracer, r chaos.Runner, s chaos.Schedule) *chaos.RunResult {
	t.begin(kRun)
	res := r.Run(s)
	t.end()
	return res
}

// ---- matrix ----

func matrixSeeds(seed int64) []int64 {
	out := make([]int64, matrixSeedsPerRun)
	for i := range out {
		out[i] = (seed-1)*matrixSeedsPerRun + int64(i) + 1
	}
	return out
}

// matrixSetup is the work before the first run: specs, cell enumeration
// and scenario generation.
func matrixSetup(seed int64) error {
	n := 0
	for _, spec := range allApps() {
		runner := chaos.Runner{Spec: spec, Probe: true}
		procs, crashable := runner.Procs(), runner.Crashable()
		for _, kind := range chaos.MatrixKinds {
			for _, s := range matrixSeeds(seed) {
				chaos.Generate(kind, procs, crashable, spec.Horizon, s)
				n++
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("matrix: no cells")
	}
	return nil
}

func matrixUnit(seed int64, t *tracer) (*unit, error) {
	u := &unit{}
	var rep *chaos.MatrixReport
	if t == nil {
		rep = chaos.RunMatrix(chaos.MatrixConfig{Apps: allApps(), Seeds: matrixSeeds(seed), Workers: 1})
	} else {
		rep, u.jobs = tracedMatrix(seed, t)
	}
	for _, c := range rep.Cells {
		u.check(c.Pass(), "matrix cell %v: %s", c.Cell, c.Fail())
	}
	u.runs = 2 * len(rep.Cells)
	h := sha256.New()
	for _, c := range rep.Cells {
		if err := digestJSON(h, c); err != nil {
			return nil, err
		}
	}
	u.digest = sum(h)
	return u, nil
}

// tracedMatrix is chaos.RunMatrix's sequential sweep driven by the
// benchmark over traced specs, so each Runner.Run gets a span. Its report
// must equal RunMatrix's byte for byte.
func tracedMatrix(seed int64, t *tracer) (*chaos.MatrixReport, []job) {
	rep := &chaos.MatrixReport{}
	var jobs []job
	for _, raw := range allApps() {
		spec := tracedSpec(raw, t)
		for _, kind := range chaos.MatrixKinds {
			for _, s := range matrixSeeds(seed) {
				runner := chaos.Runner{Spec: spec, Seed: s, Probe: true}
				scen := chaos.Generate(kind, runner.Procs(), runner.Crashable(), spec.Horizon, s)
				sched := chaos.Schedule{scen}
				r1 := timedRun(t, runner, sched)
				r2 := timedRun(t, runner, sched)
				rep.Cells = append(rep.Cells, &chaos.CellResult{
					Cell:     chaos.Cell{App: raw.Name, Kind: kind, Seed: s},
					Scenario: scen, Result: r1, Deterministic: r1.Digest == r2.Digest,
				})
				jobs = append(jobs, job{spec: raw, seed: s, sched: sched})
			}
		}
	}
	return rep, jobs
}

// ---- pipeline ----

func pipelineSeeds(seed int64) []int64 {
	out := make([]int64, pipelineSubSeeds)
	for i := range out {
		out[i] = (seed-1)*pipelineSubSeeds + int64(i) + 1
	}
	return out
}

// pipelineConfigs are the searches of one derived seed: every app but
// kvstore with pipelineExtraKinds, then kvstore with kvstoreExtraKinds.
func pipelineConfigs(sub int64) []chaos.SearchConfig {
	var rest, kv []apps.AppSpec
	for _, spec := range allApps() {
		if spec.Name == "kvstore" {
			kv = append(kv, spec)
		} else {
			rest = append(rest, spec)
		}
	}
	cfg := func(specs []apps.AppSpec, extra []fault.Kind) chaos.SearchConfig {
		return chaos.SearchConfig{Apps: specs, Buggy: true, Seed: sub,
			CheckEvery: pipelineCheck, ExtraKinds: extra, Workers: 1}
	}
	return []chaos.SearchConfig{cfg(rest, pipelineExtraKinds), cfg(kv, kvstoreExtraKinds)}
}

// pipelineSetup is the work before the first run: specs, knob tables and,
// per application and derived seed, the frontier with its seed batch of
// generated scenarios.
func pipelineSetup(seed int64) error {
	for _, sub := range pipelineSeeds(seed) {
		for _, cfg := range pipelineConfigs(sub) {
			for _, spec := range cfg.Apps {
				_, _ = apps.Knobs(spec.Name) // not every app is knobbed
				if len(chaos.NewFrontier(spec, cfg, chaos.StrategyGuided).NextBatch()) == 0 {
					return fmt.Errorf("pipeline: empty seed batch for %s", spec.Name)
				}
			}
		}
	}
	return nil
}

// pipelineUnit is detect → shrink → replay-verify → repair on the seeded-bug
// variants of all seven applications, at each derived seed: (1) guided
// search, which also minimizes each distinct violation signature it
// finds; (2) chaos.Shrink on the first fault-injected corpus schedule per
// application and violation signature; (3) every artifact round-trips
// through JSON and must Verify; (4) repair.Repair on each knobbed
// application's search artifact.
func pipelineUnit(seed int64, t *tracer) (*unit, error) {
	u := &unit{}
	h := sha256.New()
	var admitted, executions, shrinkRuns, schedBefore, schedAfter int
	var trials, cheapRejects, repairRuns int
	for _, sub := range pipelineSeeds(seed) {
		var found []*chaos.AppSearch
		for _, cfg := range pipelineConfigs(sub) {
			var rep *chaos.SearchReport
			if t == nil {
				rep = chaos.Search(cfg)
			} else {
				var jobs []job
				rep, jobs = tracedSearch(cfg, t)
				u.jobs = append(u.jobs, jobs...)
			}
			if err := digestJSON(h, rep); err != nil {
				return nil, err
			}
			found = append(found, rep.Apps...)
		}
		var arts []*chaos.Artifact
		for _, a := range found {
			u.runs += a.Executions + a.ShrinkRuns
			executions += a.Executions
			admitted += len(a.Corpus)
			shrinkRuns += a.ShrinkRuns
			for _, f := range a.Failures {
				schedBefore += len(f.Schedule)
				schedAfter += len(f.Shrunk)
				arts = append(arts, f.Artifact)
			}
		}

		// (2) distinct fault-injected failures.
		for _, a := range found {
			spec, err := apps.Lookup(a.App)
			if err != nil {
				return nil, err
			}
			if t != nil {
				spec = tracedSpec(spec, t)
			}
			runner := chaos.Runner{Spec: spec, Buggy: true, Seed: sub, Probe: true, CheckEvery: pipelineCheck}
			seen := map[string]bool{}
			for _, e := range a.Corpus {
				if len(e.Schedule) == 0 {
					continue
				}
				res := timedRun(t, runner, e.Schedule)
				u.runs++
				sig := strings.Join(res.Violations, "|")
				if sig == "" || seen[sig] {
					continue
				}
				seen[sig] = true
				fails := func(s chaos.Schedule) bool { return len(timedRun(t, runner, s).Violations) > 0 }
				t.begin(kShrink)
				sr := chaos.Shrink(e.Schedule, fails, shrinkBudget)
				t.end()
				final := timedRun(t, runner, sr.Schedule)
				u.runs += sr.Runs + 1
				shrinkRuns += sr.Runs
				schedBefore += len(e.Schedule)
				schedAfter += len(sr.Schedule)
				u.check(len(final.Violations) > 0, "%s seed %d: shrunk schedule no longer fails", a.App, sub)
				arts = append(arts, chaos.NewArtifact(runner, sr.Schedule, final))
			}
		}

		// (3) JSON round trip and replay verification.
		for _, art := range arts {
			t.begin(kVerify)
			b, err := art.JSON()
			if err != nil {
				return nil, err
			}
			back, err := chaos.LoadArtifact(b)
			if err != nil {
				return nil, err
			}
			b2, err := back.JSON()
			if err != nil {
				return nil, err
			}
			verr := back.Verify()
			t.end()
			u.runs++
			u.check(bytes.Equal(b, b2), "%s seed %d: artifact JSON does not round-trip", art.App, sub)
			u.check(verr == nil, "%s seed %d: artifact does not verify: %v", art.App, sub, verr)
			h.Write(b)
		}

		// (4) repair each knobbed application's search artifact.
		for _, a := range found {
			if len(a.Failures) == 0 {
				continue
			}
			if _, err := apps.Knobs(a.App); err != nil {
				continue
			}
			t.begin(kRepair)
			rr, err := repair.Repair(repair.Config{Artifact: a.Failures[0].Artifact, Seed: sub, Workers: 1})
			t.end()
			u.check(err == nil, "%s seed %d: repair: %v", a.App, sub, err)
			if err != nil {
				continue
			}
			u.check(a.App != "kvstore" || !rr.Fixed, "kvstore seed %d reported fixed", sub)
			u.runs += rr.Runs
			repairRuns += rr.Runs
			trials += len(rr.Trials)
			for _, tr := range rr.Trials {
				if !tr.CheapPass {
					cheapRejects++
				}
			}
			if err := digestJSON(h, rr); err != nil {
				return nil, err
			}
		}
	}
	u.digest = sum(h)
	if t != nil {
		u.layer = map[string]float64{
			"chaos.admit_ratio":         ratio(admitted, executions),
			"chaos.shrink_runs":         float64(shrinkRuns),
			"chaos.shrink_ratio":        ratio(schedAfter, schedBefore),
			"repair.trials":             float64(trials),
			"repair.runs":               float64(repairRuns),
			"repair.cheap_reject_ratio": ratio(cheapRejects, trials),
		}
	}
	return u, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedSearch is chaos.Search driven by the benchmark: one frontier per
// traced spec, its shrink delegate the timed LocalShrinker, candidates run
// one at a time under chaos.run spans. The report must equal Search's.
func tracedSearch(cfg chaos.SearchConfig, t *tracer) (*chaos.SearchReport, []job) {
	cfg = cfg.WithDefaults()
	rep := &chaos.SearchReport{Strategy: string(chaos.StrategyGuided), Seed: cfg.Seed, Budget: cfg.Budget, Buggy: cfg.Buggy}
	var jobs []job
	for _, raw := range cfg.Apps {
		var f *chaos.Frontier
		t.record(kFrontier, func() { f = chaos.NewFrontier(tracedSpec(raw, t), cfg, chaos.StrategyGuided) })
		runner := f.Runner()
		local := chaos.LocalShrinker(runner, cfg.ShrinkBudget)
		f.SetShrinker(func(s chaos.Schedule, r *chaos.RunResult) *chaos.SearchFailure {
			t.begin(kShrink)
			out := local(s, r)
			t.end()
			return out
		})
		for {
			var batch []chaos.Candidate
			t.record(kFrontier, func() { batch = f.NextBatch() })
			if len(batch) == 0 {
				break
			}
			for _, c := range batch {
				res := timedRun(t, runner, c.Schedule)
				t.record(kFrontier, func() { f.Admit(c, res) })
				jobs = append(jobs, job{spec: raw, buggy: cfg.Buggy, seed: cfg.Seed, checkEvery: cfg.CheckEvery, sched: c.Schedule})
			}
		}
		var out *chaos.AppSearch
		t.record(kFrontier, func() { out = f.Finish() })
		rep.Apps = append(rep.Apps, out)
	}
	return rep, jobs
}

// ---- fleet ----

func fleetConfig(seed int64) fleet.Config {
	return fleet.Config{
		Search:          chaos.SearchConfig{Apps: apps.Registry(), Seed: seed, Budget: fleetBudget, CheckEvery: fleetCheck},
		NoLocalFallback: true,
	}
}

// fleetSetup is the work before the first lease: specs, the coordinator's
// listen, and a worker's dial and Hello, on a coordinator that is closed
// again before it runs.
func fleetSetup(seed int64) error {
	coord, err := fleet.NewCoordinator(fleetConfig(seed))
	if err != nil {
		return err
	}
	defer coord.Close()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	return fleet.WriteFrame(conn, &fleet.Frame{Type: fleet.FrameHello,
		Hello: &fleet.Hello{Proto: fleet.ProtoVersion, Name: "setup"}})
}

// fleetUnit is guided search over the registry apps' correct variants
// through a coordinator and one loopback-TCP worker with no local
// fallback, so every candidate crosses the wire. Traced, a frame relay
// sits between the two.
func fleetUnit(seed int64, t *tracer) (*unit, error) {
	u := &unit{}
	coord, err := fleet.NewCoordinator(fleetConfig(seed))
	if err != nil {
		return nil, err
	}
	join := coord.Addr()
	var rl *relay
	if t != nil {
		if rl, err = newRelay(join); err != nil {
			coord.Close()
			return nil, err
		}
		join = rl.addr()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	w := &fleet.Worker{Join: join, Name: "perfbench"}
	go func() { done <- w.Run(ctx) }()
	rep, runErr := coord.Run()
	cancel()
	<-done
	if rl != nil {
		rl.close()
	}
	reissues, local := coord.Stats()
	if err := coord.Close(); err != nil {
		return nil, err
	}
	u.check(runErr == nil, "fleet search failed (poisoned lease?): %v", runErr)
	u.check(local == 0, "coordinator ran %d tasks locally", local)
	if runErr != nil {
		u.digest = "error"
		return u, nil
	}
	h := sha256.New()
	if err := digestJSON(h, rep); err != nil {
		return nil, err
	}
	u.digest = sum(h)
	var admitted, executions int
	for _, a := range rep.Apps {
		u.runs += a.Executions + a.ShrinkRuns
		executions += a.Executions
		admitted += len(a.Corpus)
	}
	if rl != nil {
		codec, err := rl.codecSeconds()
		if err != nil {
			return nil, err
		}
		specs := map[string]apps.AppSpec{}
		for _, s := range apps.Registry() {
			specs[s.Name] = s
		}
		for _, f := range rl.frames {
			if f.Type != fleet.FrameLease {
				continue
			}
			l := f.Lease
			for _, c := range l.Candidates {
				u.jobs = append(u.jobs, job{spec: specs[l.App], buggy: l.Buggy, seed: l.Seed, checkEvery: l.CheckEvery, sched: c.Schedule})
			}
		}
		u.layer = map[string]float64{
			"chaos.admit_ratio":          ratio(admitted, executions),
			"fleet.leases":               float64(rl.leases),
			"fleet.candidates_per_lease": ratio(rl.cands, rl.leases),
			"fleet.lease_rtt_p50_ms":     quantileMS(rl.rtts, 0.50),
			"fleet.lease_rtt_p99_ms":     quantileMS(rl.rtts, 0.99),
			"fleet.coord_gap_p50_ms":     quantileMS(rl.gaps, 0.50),
			"fleet.wire_bytes_per_run":   ratio(int(rl.bytes), u.runs),
			"fleet.codec_s":              codec,
			"fleet.reissues":             float64(reissues),
			"fleet.local_runs":           float64(local),
		}
	}
	return u, nil
}

// fleetPost checks the fleet report against the in-process search at the
// same configuration: the fleet must not change what the search finds.
func fleetPost(seed int64, u *unit) error {
	rep := chaos.Search(fleetConfig(seed).Search)
	h := sha256.New()
	if err := digestJSON(h, rep); err != nil {
		return err
	}
	u.check(sum(h) == u.digest, "fleet report differs from in-process chaos.Search")
	return nil
}
