// Command perfbench is the repository's benchmark. It runs one named
// workload (matrix, pipeline or fleet) through the same public entry
// points users call, checks the workload's deterministic output, and
// prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload matrix --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it runs the workload untraced and traced in alternation
// and reports the per-layer metrics, read from spans the benchmark records
// around its calls into each layer, plus the tracing overhead. See
// README.md for the workloads, metrics and what each layer metric should
// move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// defaultSeed is the seed whose report digests are pinned in golden.go.
const defaultSeed = 1

// Set-up is repeated at least minSetupReps times and until minSetupTime
// has passed (at most maxSetupReps times); setup_s is the median.
const (
	minSetupReps = 15
	maxSetupReps = 400
	minSetupTime = 300 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: matrix, pipeline or fleet")
	seed := flag.Int64("seed", defaultSeed, "workload seed (>= 1)")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	rep := flag.Bool("rep", false, "run one untraced repetition and print its measurement (internal)")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seed < 1 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload matrix|pipeline|fleet --seed n>=1 --seconds s>=1 --trace 0|1")
		os.Exit(2)
	}
	if *rep {
		if err := repetition(w, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	budget := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(w, *seed, budget)
	} else {
		res, err = untraced(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// measureSetup times the workload's set-up repeatedly.
func measureSetup(w *workload, seed int64) (float64, error) {
	var ts []float64
	for start := time.Now(); len(ts) < minSetupReps || (len(ts) < maxSetupReps && time.Since(start) < minSetupTime); {
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// tally accumulates output checks across repetitions.
type tally struct {
	attempted, failed int
	first             string // first repetition's report digest
}

func (t *tally) add(u *unit) {
	t.attempted += u.checks
	t.failed += u.failed
	for i, n := range u.notes {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "check failed: ... %d more\n", len(u.notes)-5)
			break
		}
		fmt.Fprintln(os.Stderr, "check failed:", n)
	}
	t.attempted++
	if t.first == "" {
		t.first = u.digest
	}
	if u.digest != t.first {
		t.failed++
		fmt.Fprintf(os.Stderr, "check failed: report digest %s differs from the first repetition's %s\n", u.digest, t.first)
	}
}

// golden compares the default seed's report digest with the pinned one.
func (t *tally) golden(w *workload, seed int64) {
	if seed != defaultSeed {
		return
	}
	t.attempted++
	if want := goldenDigests[w.name]; t.first != want {
		t.failed++
		fmt.Fprintf(os.Stderr, "check failed: %s report digest %s, golden %s\n", w.name, t.first, want)
	}
}

// repOut is one untraced repetition's measurement, printed by a --rep
// child process for its parent.
type repOut struct {
	Runs    int      `json:"runs"`
	Wall    float64  `json:"wall_s"`
	Mallocs uint64   `json:"mallocs"`
	Bytes   uint64   `json:"bytes"`
	Digest  string   `json:"digest"`
	Checks  int      `json:"checks"`
	Failed  int      `json:"failed"`
	Notes   []string `json:"notes"`
}

// repetition runs one untraced unit in this process and prints its
// measurement as JSON.
func repetition(w *workload, seed int64) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	u, err := w.unit(seed, nil)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	out, err := json.Marshal(repOut{Runs: u.runs, Wall: wall, Mallocs: m1.Mallocs - m0.Mallocs,
		Bytes: m1.TotalAlloc - m0.TotalAlloc, Digest: u.digest, Checks: u.checks, Failed: u.failed, Notes: u.notes})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// spawnRepetition runs one repetition in a child process, so each
// repetition's peak resident memory is its own, and returns the child's
// measurement with that peak in MiB.
func spawnRepetition(w *workload, seed int64) (*repOut, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--rep")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("repetition: %w", err)
	}
	var r repOut
	if err := json.Unmarshal(bytes.TrimSpace(b), &r); err != nil {
		return nil, 0, fmt.Errorf("repetition output: %w", err)
	}
	if r.Runs == 0 {
		return nil, 0, fmt.Errorf("repetition ran no schedules")
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, fmt.Errorf("no resource usage for repetition")
	}
	return &r, float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// untraced repeats the workload's unit, each repetition in its own child
// process, until the measuring time is spent, and reports the end-to-end
// metrics as medians over the repetitions.
func untraced(w *workload, seed int64, budget time.Duration) (*result, error) {
	setup, err := measureSetup(w, seed)
	if err != nil {
		return nil, err
	}
	var walls, rates, allocs, allocBytes, rss []float64
	var tl tally
	var last *unit
	for start := time.Now(); len(walls) == 0 || time.Since(start) < budget; {
		r, peak, err := spawnRepetition(w, seed)
		if err != nil {
			return nil, err
		}
		last = &unit{runs: r.Runs, digest: r.Digest, checks: r.Checks, failed: r.Failed, notes: r.Notes}
		tl.add(last)
		walls = append(walls, r.Wall)
		rates = append(rates, float64(r.Runs)/r.Wall)
		allocs = append(allocs, float64(r.Mallocs)/float64(r.Runs))
		allocBytes = append(allocBytes, float64(r.Bytes)/float64(r.Runs))
		rss = append(rss, peak)
	}
	if w.post != nil {
		post := &unit{digest: last.digest}
		if err := w.post(seed, post); err != nil {
			return nil, err
		}
		tl.attempted += post.checks
		tl.failed += post.failed
		for _, n := range post.notes {
			fmt.Fprintln(os.Stderr, "check failed:", n)
		}
	}
	tl.golden(w, seed)
	fmt.Printf("%s: seed %d, %d repetitions of %d runs, report %s\n", w.name, seed, len(walls), last.runs, tl.first)
	return &result{
		Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed,
		Metrics: map[string]metric{
			"runs_per_s":     {median(rates), "1/s"},
			"wall_s":         {median(walls), "s"},
			"setup_s":        {setup, "s"},
			"allocs_per_run": {median(allocs), "count"},
			"bytes_per_run":  {median(allocBytes), "bytes"},
			"peak_rss_mb":    {median(rss), "MB"},
		},
	}, nil
}

// traced alternates an untraced and a traced repetition of the unit until
// the measuring time is spent. Each traced repetition must reproduce the
// untraced report digest; its schedules are then re-executed through the
// simulator's public seams to reach the layers inside a run. Per-layer
// metrics are medians over the traced repetitions.
func traced(w *workload, seed int64, budget time.Duration) (*result, error) {
	var tl tally
	var passes []map[string]float64
	var t1, t2 *tracer
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < budget {
		runtime.GC()
		t0 := time.Now()
		ref, err := w.unit(seed, nil)
		if err != nil {
			return nil, err
		}
		plain := time.Since(t0).Seconds()
		tl.add(ref)

		runtime.GC()
		t1 = newTracer()
		t0 = time.Now()
		u, err := w.unit(seed, t1)
		if err != nil {
			return nil, err
		}
		tracedWall := time.Since(t0).Seconds()
		tl.add(u)

		t2 = newTracer()
		st, err := reexecute(t2, sample(u.jobs))
		tl.attempted++
		if err != nil {
			tl.failed++
			fmt.Fprintln(os.Stderr, "check failed:", err)
			st = &reexecStats{}
		}
		m := layerMetrics(w, u, t1, t2, st)
		m["trace.untraced_wall_s"] = plain
		m["trace.traced_wall_s"] = tracedWall
		m["trace.overhead_s"] = tracedWall - plain
		passes = append(passes, m)
	}
	tl.golden(w, seed)
	dir := filepath.Join(".bench_build", "perfbench-trace")
	for i, tr := range []*tracer{t1, t2} {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.spans.jsonl", w.name, seed, []string{"run", "reexec"}[i]))
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
	}
	fmt.Printf("%s: seed %d, %d traced repetitions, report %s, spans in %s\n", w.name, seed, len(passes), tl.first, dir)
	if len(w.unmeasured) > 0 {
		fmt.Printf("unmeasured on %s (reported as 0): %v\n", w.name, w.unmeasured)
	}
	metrics := map[string]metric{}
	for _, lm := range layerMetricList {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p[lm.name])
		}
		metrics[lm.name] = metric{median(xs), lm.unit}
	}
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics}, nil
}
