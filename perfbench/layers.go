package main

import (
	"sort"
)

type layerMetric struct{ name, unit string }

// layerMetricList is every per-layer metric a traced run reports, in
// BENCHMARK.json order. Layers a workload bypasses read 0; layers a
// workload cannot reach from outside the program are listed in its
// workload.unmeasured and also read 0.
var layerMetricList = []layerMetric{
	{"dsim.run_self_s", "s"},
	{"dsim.ns_per_step", "ns"},
	{"dsim.steps_per_run", "count"},
	{"dsim.setup_s", "s"},
	{"dsim.early_exit_ratio", "ratio"},
	{"apps.handler_s", "s"},
	{"apps.handler_calls_per_run", "count"},
	{"checkpoint.per_run", "count"},
	{"checkpoint.restores_per_run", "count"},
	{"checkpoint.encode_s", "s"},
	{"checkpoint.encode_bytes_per_run", "bytes"},
	{"checkpoint.decode_s", "s"},
	{"vclock.ops_per_run", "count"},
	{"vclock.replay_s", "s"},
	{"scroll.records_per_run", "count"},
	{"scroll.append_replay_s", "s"},
	{"scroll.fingerprint_s", "s"},
	{"scroll.fingerprint_ns_per_record", "ns"},
	{"fault.monitor_s", "s"},
	{"fault.monitor_calls_per_run", "count"},
	{"fault.state_encode_s", "s"},
	{"fault.inject_s", "s"},
	{"chaos.run_p50_us", "us"},
	{"chaos.run_p99_us", "us"},
	{"chaos.frontier_s", "s"},
	{"chaos.admit_ratio", "ratio"},
	{"chaos.shrink_s", "s"},
	{"chaos.shrink_runs", "count"},
	{"chaos.shrink_ratio", "ratio"},
	{"chaos.verify_s", "s"},
	{"repair.s", "s"},
	{"repair.trials", "count"},
	{"repair.runs", "count"},
	{"repair.cheap_reject_ratio", "ratio"},
	{"fleet.leases", "count"},
	{"fleet.candidates_per_lease", "count"},
	{"fleet.lease_rtt_p50_ms", "ms"},
	{"fleet.lease_rtt_p99_ms", "ms"},
	{"fleet.coord_gap_p50_ms", "ms"},
	{"fleet.wire_bytes_per_run", "bytes"},
	{"fleet.codec_s", "s"},
	{"fleet.reissues", "count"},
	{"fleet.local_runs", "count"},
	{"trace.reexec_runs", "count"},
	{"trace.untraced_wall_s", "s"},
	{"trace.traced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.unmeasured", "count"},
}

// layerMetrics derives one traced repetition's per-layer metrics: t1 holds
// the spans around the workload's own calls (runs, frontier, shrink,
// verify, repair), t2 and st the probe-free re-executions that reach the
// layers inside a run, and u.layer the counts read off the reports.
func layerMetrics(w *workload, u *unit, t1, t2 *tracer, st *reexecStats) map[string]float64 {
	n := float64(max(st.runs, 1))
	perRun := func(x int64) float64 { return float64(x) / n }
	m := map[string]float64{
		"dsim.run_self_s":                 t2.self(kSimRun),
		"dsim.steps_per_run":              perRun(st.steps),
		"dsim.setup_s":                    t2.total(kSimSetup),
		"dsim.early_exit_ratio":           perRun(st.earlyExits),
		"apps.handler_s":                  t2.total(kHandler),
		"apps.handler_calls_per_run":      perRun(st.handlerCall),
		"checkpoint.per_run":              perRun(st.checkpoints),
		"checkpoint.restores_per_run":     perRun(st.rollbacks),
		"checkpoint.encode_s":             float64(t2.ckptEncodeNS) / 1e9,
		"checkpoint.encode_bytes_per_run": perRun(t2.ckptEncodeB),
		"checkpoint.decode_s":             t2.total(kDecode),
		"vclock.ops_per_run":              perRun(st.clockOps),
		"vclock.replay_s":                 t2.total(kClock),
		"scroll.records_per_run":          perRun(st.records),
		"scroll.append_replay_s":          t2.total(kAppend),
		"scroll.fingerprint_s":            t2.total(kFingerprint),
		"fault.monitor_s":                 t2.total(kMonitor),
		"fault.monitor_calls_per_run":     perRun(st.monitorCalls),
		"fault.state_encode_s":            float64(t2.stateEncodeNS) / 1e9,
		"fault.inject_s":                  t2.total(kInject),
		"chaos.frontier_s":                t1.self(kFrontier),
		"chaos.shrink_s":                  t1.total(kShrink),
		"chaos.verify_s":                  t1.total(kVerify),
		"repair.s":                        t1.total(kRepair),
		"trace.reexec_runs":               float64(st.runs),
		"trace.unmeasured":                float64(len(w.unmeasured)),
	}
	if st.steps > 0 {
		m["dsim.ns_per_step"] = float64(t2.agg[kSimRun].self) / float64(st.steps)
	}
	if st.records > 0 {
		m["scroll.fingerprint_ns_per_record"] = float64(t2.agg[kFingerprint].total) / float64(st.records)
	}
	if d := t1.runDurations; len(d) > 0 {
		s := append([]int64(nil), d...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		m["chaos.run_p50_us"] = float64(s[rank(len(s), 0.50)]) / 1e3
		m["chaos.run_p99_us"] = float64(s[rank(len(s), 0.99)]) / 1e3
	}
	for k, v := range u.layer {
		m[k] = v
	}
	return m
}
