// Command perfbench is the end-to-end crash-testing benchmark. It runs one
// workload as a closed loop for a fixed time from a single process and
// prints its metrics as JSON:
//
//	bash perfbench/run.sh --workload ace-seq2 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs an
// untraced reference phase and a traced phase of half the time each and
// prints the per-layer metrics plus the tracing overhead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"chipmunk/internal/obs"
)

// engineWorkers is how many goroutines do engine work in every workload:
// two suite workers, or two loopback workers (nproc = 2).
const engineWorkers = 2

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 9

// runDeadline bounds one benchmark run, set-up and checks included.
const runDeadline = 170 * time.Second

// bench is one workload of the benchmark.
type bench interface {
	// setup builds the workload's inputs and program state and brings the
	// program to its first completed unit. It is timed and repeated.
	setup(ctx context.Context, seed int64) error
	// iterate runs closed-loop iteration i, whose inputs derive from
	// inputSeed(seed, i), timing only the program's work on ph's clock. It
	// returns what any rerun of iteration i must reproduce exactly.
	iterate(ctx context.Context, ph *phase, i int) (outcome, error)
	// verify runs the checks that need the whole phase, untimed.
	verify(ctx context.Context, ph *phase) error
}

// outcome is an iteration's identity: a digest of its census or
// fingerprint, and counts that must repeat exactly.
type outcome struct {
	ident  string
	counts map[string]int
}

// inputSeed derives iteration i's input seed from the run's seed.
// Iteration 0 uses the seed itself; later iterations draw fresh inputs, so
// a run averages over many inputs instead of repeating one.
func inputSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// phase is one measured stretch of iterations.
type phase struct {
	tr        *tracer // nil when untraced
	clk       clock
	states    int
	execs     int
	units     []float64 // unit latencies, ms
	iterUnits [][]float64
	attempted int
	failed    int
	outs      []outcome
	iters     []iterStat
	lay       layers
	tap       tapStats
	goRT      goRuntime
}

// iterStat is one iteration's share of the phase totals, the probe time
// measured just before it, and its peak live heap.
type iterStat struct {
	wall, cpu     time.Duration
	states, execs int
	units         int // units before the iteration (bookkeeping in measure)
	probe         time.Duration
	peakHeap      uint64
}

// layers is what a traced phase measured per layer.
type layers struct {
	snap obs.Snapshot // merged engine snapshot (Config.Obs or Spec.Stats)
	// app is set when the check and record stages ran an application
	// contract instead of the FS oracle; wire names the coordinator the
	// workload leases through ("campaign", "fleet" or "").
	app  bool
	wire string
	// runMs holds every engine run's wall time (journal workload events);
	// snapRunNanos sums those of the runs the snapshot covers; capacity is
	// engineWorkers × the wall of the timed units.
	runMs        []float64
	snapRunNanos int64
	capacity     time.Duration
	fs           map[string]*fsLayer
	chk          checkTimes
	censusNanos  int64
	censuses     int
	corpus       int
	coverage     int
	redispatched int
	heartbeats   int
	perWorker    map[string]int
}

type fsLayer struct {
	states     int
	wall       time.Duration
	mountNanos int64
}

func (l *layers) fsLayer(name string) *fsLayer {
	if l.fs == nil {
		l.fs = map[string]*fsLayer{}
	}
	if l.fs[name] == nil {
		l.fs[name] = &fsLayer{}
	}
	return l.fs[name]
}

// addRuns folds journaled engine runs into the layer data and, when traced,
// records one span per run.
func (ph *phase) addRuns(runs []obs.Event, parent func(obs.Event) (id, parentID uint64, worker string)) {
	for _, e := range runs {
		ph.lay.runMs = append(ph.lay.runMs, float64(e.DurNanos)/1e6)
		if ph.tr != nil {
			id, p, w := parent(e)
			ph.tr.record(span{ID: id, Run: id, Parent: p, Name: ph.tr.runSpanName(id), Worker: w},
				e.Time.Add(-time.Duration(e.DurNanos)), e.Time)
		}
	}
}

// addLoopback folds a loopback job's wire measurements into the phase:
// its units, its tap, the engine-worker capacity its wall gave, and, when
// traced, its workers' engine runs, one span each (joined to their units
// at the end of the phase).
func (ph *phase) addLoopback(r *loopbackRun, perWorker map[string]int) {
	ph.units = append(ph.units, r.tap.unitMs...)
	ph.tap.add(r.tap)
	ph.attempted += r.tap.granted
	ph.lay.capacity += engineWorkers * r.wall
	if ph.lay.perWorker == nil {
		ph.lay.perWorker = map[string]int{}
	}
	for w, n := range perWorker {
		ph.lay.perWorker[w] += n
	}
	for _, wr := range r.runs {
		ph.addRuns(wr.events, func(obs.Event) (uint64, uint64, string) {
			return ph.tr.newID(), 0, wr.worker
		})
	}
}

// workloads builds each workload; out is the directory for its reports.
var workloads = map[string]func(out string) bench{
	"ace-seq2":    func(string) bench { return &aceSeq2{} },
	"campaign-kv": func(out string) bench { return &campaignKV{out: out} },
	"fleet-fuzz":  func(string) bench { return &fleetFuzz{} },
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: ace-seq2, campaign-kv or fleet-fuzz")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
		out     = flag.String("out", ".bench_build", "directory for span traces and reports")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload ace-seq2|campaign-kv|fleet-fuzz --seed N --seconds N>=1 --trace 0|1\n")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	w := mk(*out)
	res, err := measureRun(ctx, w, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	attr := attribution(*name, *seed, *seconds, *trace)
	attr["checks"] = res.checks
	attr["iterations"] = res.iterations
	attr["setup_s_raw"] = res.setups
	if res.speed != 0 {
		attr["machine_speed"] = res.speed
	}
	line, _ := json.Marshal(map[string]any{"attribution": attr})
	fmt.Println(string(line))
	final, _ := json.Marshal(map[string]any{
		"correct":   len(res.checks.Mismatches) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	fmt.Println(string(final))
	if len(res.checks.Mismatches) > 0 {
		for _, m := range res.checks.Mismatches {
			fmt.Fprintf(os.Stderr, "perfbench: correctness check failed: %s\n", m)
		}
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checks reports the correctness checks and the counts that must repeat.
type checks struct {
	Ident      string         `json:"ident"`
	Counts     map[string]int `json:"counts"`
	Mismatches []string       `json:"mismatches,omitempty"`
}

type runResult struct {
	metrics           map[string]metric
	speed             float64
	setups            []float64
	attempted, failed int
	iterations        int
	checks            checks
}

// measureRun sets up, measures, checks, and assembles the metrics of one run.
func measureRun(ctx context.Context, w bench, name string, seed int64, budget time.Duration, traced bool, out string) (*runResult, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx, seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var mismatches []string
	verify := func(ph *phase) {
		if err := w.verify(ctx, ph); err != nil {
			mismatches = append(mismatches, err.Error())
		}
	}

	if !traced {
		ph, err := measure(ctx, w, budget, nil)
		if err != nil {
			return nil, err
		}
		verify(ph)
		// Rerun iteration 0, untimed: its outputs must repeat exactly.
		again, err := w.iterate(ctx, &phase{}, 0)
		if err != nil {
			return nil, err
		}
		mismatches = append(mismatches, compare("rerun", []outcome{again}, ph.outs)...)
		return &runResult{
			metrics:   endToEnd(ph, setups),
			speed:     machineSpeed(ph),
			setups:    setups,
			attempted: ph.attempted, failed: ph.failed, iterations: len(ph.iters),
			checks: checks{Ident: ph.outs[0].ident, Counts: ph.outs[0].counts, Mismatches: mismatches},
		}, nil
	}

	ref, err := measure(ctx, w, budget/2, nil)
	if err != nil {
		return nil, err
	}
	verify(ref)
	trc, err := measure(ctx, w, budget/2, newTracer())
	if err != nil {
		return nil, err
	}
	verify(trc)
	// The traced phase runs the same inputs, iteration by iteration.
	mismatches = append(mismatches, compare("traced", trc.outs, ref.outs)...)
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := trc.tr.writeSpans(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	trc.tr.writeSummary(os.Stderr, trc.clk.wall)
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	return &runResult{
		metrics:   perLayer(ref, trc),
		attempted: ref.attempted + trc.attempted, failed: ref.failed + trc.failed,
		iterations: len(ref.iters) + len(trc.iters),
		checks:     checks{Ident: ref.outs[0].ident, Counts: ref.outs[0].counts, Mismatches: mismatches},
	}, nil
}

// compare reports where outcomes of a rerun differ from the originals of
// the same iterations.
func compare(what string, got, want []outcome) []string {
	var out []string
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i].ident != want[i].ident {
			out = append(out, fmt.Sprintf("%s iteration %d computed %s, first run %s", what, i, got[i].ident, want[i].ident))
		}
		for k, v := range want[i].counts {
			if got[i].counts[k] != v {
				out = append(out, fmt.Sprintf("%s iteration %d: %s = %d, first run %d", what, i, k, got[i].counts[k], v))
			}
		}
	}
	return out
}

// measure runs iterations until the phase's timed wall reaches budget (at
// least one iteration).
func measure(ctx context.Context, w bench, budget time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{tr: tr}
	heap := startHeapPeak()
	defer heap.stop()
	rt0 := readGoRuntime()
	for len(ph.iters) == 0 || ph.clk.wall < budget {
		before := iterStat{wall: ph.clk.wall, cpu: ph.clk.cpu, states: ph.states, execs: ph.execs, units: len(ph.units)}
		probe := speedProbe()
		heap.reset()
		o, err := w.iterate(ctx, ph, len(ph.iters))
		if err != nil {
			return nil, err
		}
		ph.outs = append(ph.outs, o)
		ph.iterUnits = append(ph.iterUnits, append([]float64(nil), ph.units[before.units:]...))
		ph.iters = append(ph.iters, iterStat{wall: ph.clk.wall - before.wall, cpu: ph.clk.cpu - before.cpu,
			states: ph.states - before.states, execs: ph.execs - before.execs,
			probe: probe, peakHeap: heap.max()})
	}
	ph.goRT = readGoRuntime().sub(rt0)
	if tr != nil && ph.lay.wire != "" {
		// Loopback engine runs join their lease units now; the snapshot
		// covers the runs inside units other than minimization tasks.
		tr.link("engine.run", "unit", "unit.minimize")
		ph.lay.snapRunNanos = tr.durationUnder("engine.run", "unit")
	}
	return ph, nil
}

// endToEnd computes the metrics a user of the system sees. Rates, unit
// latency percentiles and peak heap are medians over iterations of each
// iteration's figure, so a burst of load from outside the benchmark moves
// them less than a whole-run figure. Wall times are calibrated to the
// machine speed (see calibrate.go); CPU time is not, because it excludes
// the time spent waiting for a CPU, and across loaded runs it spread less
// raw than calibrated.
func endToEnd(ph *phase, setups []float64) map[string]metric {
	var sps, eps, cpk, heaps []float64
	for _, it := range ph.iters {
		sps = append(sps, ratio(float64(it.states), it.wall.Seconds()))
		eps = append(eps, ratio(float64(it.execs), it.wall.Seconds()))
		cpk = append(cpk, ratio(float64(it.cpu.Nanoseconds())/1e6, float64(it.states)/1000))
		heaps = append(heaps, float64(it.peakHeap))
	}
	speed := machineSpeed(ph)
	cal := math.Sqrt(speed) // see calibrate.go for the square root
	var p50s, p90s []float64
	for _, u := range ph.iterUnits {
		p50s = append(p50s, quantile(u, 0.5))
		p90s = append(p90s, quantile(u, 0.9))
	}
	return map[string]metric{
		"setup_s":           {median(setups) * cal, "s"},
		"states_per_sec":    {median(sps) / cal, "states/s"},
		"execs_per_sec":     {median(eps) / cal, "execs/s"},
		"unit_ms_p50":       {median(p50s) * cal, "ms"},
		"unit_ms_p90":       {median(p90s) * cal, "ms"},
		"cpu_ms_per_kstate": {median(cpk), "ms"},
		"peak_heap_mb":      {median(heaps) / (1 << 20), "MB"},
	}
}

// machineSpeed is probeRef over the phase's median probe time: above 1 on
// a machine (or a moment) faster than the reference.
func machineSpeed(ph *phase) float64 {
	var probes []float64
	for _, it := range ph.iters {
		probes = append(probes, float64(it.probe))
	}
	return float64(probeRef) / median(probes)
}

// attribution identifies the build and the run: the commit the binary was
// built from (read from the Go build info, so it is never a parent's), a
// dirty-tree flag, the Go version, nproc and the inputs.
func attribution(name string, seed int64, seconds, trace int) map[string]any {
	sha, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"sha": sha, "dirty": dirty, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "workload": name, "seed": seed,
		"seconds": seconds, "trace": trace, "args": strings.Join(os.Args[1:], " "),
	}
}
