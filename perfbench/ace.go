package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// aceSampleSize is how many ACE seq-2 workloads each system runs per
// iteration: about 1.6 s an iteration on 2 CPUs.
const aceSampleSize = 150

// aceSeq2 is the paper's systematic mode: seeded samples of ACE seq-2
// (seq-2-dax on the DAX systems) on all seven systems with their injected
// bugs, exhaustive (cap 0), through harness.Run with two suite workers.
// Mount, check and dedup on pmfs and winefs dominate, so per-state engine
// work, dedup and the in-process scheduler show here; leases, fuzzing and
// application contracts are bypassed. Each iteration draws a fresh sample.
type aceSeq2 struct {
	seed    int64
	targets []aceTarget
}

type aceTarget struct {
	sys   harness.System
	cfg   core.Config
	suite []workload.Workload
}

func (a *aceSeq2) setup(ctx context.Context, seed int64) error {
	seq2, err := ace.SuiteByName("seq2")
	if err != nil {
		return err
	}
	dax, err := ace.SuiteByName("seq2dax")
	if err != nil {
		return err
	}
	a.seed = seed
	a.targets = a.targets[:0]
	for _, sys := range harness.Systems() {
		t := aceTarget{sys: sys, suite: seq2,
			cfg: harness.Options{FS: sys.Name, Bugs: bugs.AllSet()}.ConfigFor(sys)}
		if sys.Weak {
			t.suite = dax
		}
		a.targets = append(a.targets, t)
	}
	// Warm-up: the first engine run on each system fills its pools. It runs
	// the suite's first workload, so set-up does the same work for any seed.
	for _, t := range a.targets {
		if _, _, err := harness.Run(ctx, t.cfg, t.suite[:1]); err != nil {
			return fmt.Errorf("%s warm-up: %w", t.sys.Name, err)
		}
	}
	return nil
}

// samples draws iteration i's workloads for each target, in suite order.
func (a *aceSeq2) samples(i int) [][]workload.Workload {
	rng := rand.New(rand.NewSource(inputSeed(a.seed, i)))
	out := make([][]workload.Workload, len(a.targets))
	for k, t := range a.targets {
		idx := rng.Perm(len(t.suite))[:aceSampleSize]
		sort.Ints(idx)
		out[k] = make([]workload.Workload, len(idx))
		for n, j := range idx {
			out[k][n] = t.suite[j]
		}
	}
	return out
}

func (a *aceSeq2) iterate(ctx context.Context, ph *phase, i int) (outcome, error) {
	var prints []string
	clusters := 0
	for k, sample := range a.samples(i) {
		t := a.targets[k]
		cfg := t.cfg
		var sink *runSink
		var journal *obs.Journal
		if ph.tr != nil {
			sink = &runSink{}
			journal = obs.NewJournal(sink)
			cfg = a.instrument(cfg, ph, journal, i)
		}
		lap := ph.clk.start()
		census, viol, err := harness.Run(ctx, cfg, sample, harness.WithWorkers(engineWorkers))
		wall := lap.stop()
		end := time.Now()
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", t.sys.Name, err)
		}
		ph.states += census.StatesChecked
		ph.execs += census.Workloads
		ph.units = append(ph.units, float64(wall.Nanoseconds())/1e6)
		ph.attempted += census.StatesChecked + 1
		ph.failed += len(census.Quarantined) + census.SuppressedQuarantine
		ph.lay.capacity += engineWorkers * wall
		prints = append(prints, fingerprint(census, viol))

		t0 := time.Now()
		clusters += len(core.Triage(viol))
		if ph.tr == nil {
			continue
		}
		ph.lay.censusNanos += time.Since(t0).Nanoseconds()
		if err := journal.Flush(); err != nil {
			return outcome{}, err
		}
		runs := sink.take()
		suite := spanID("harness.run", t.sys.Name, i)
		ph.addRuns(runs, func(e obs.Event) (uint64, uint64, string) {
			return spanID(e.FS, e.Workload, i), suite, ""
		})
		for _, e := range runs {
			ph.lay.snapRunNanos += e.DurNanos
		}
		ph.tr.record(span{ID: suite, Name: "harness.run"}, end.Add(-wall), end)
		ph.lay.snap.Merge(*census.Obs)
		f := ph.lay.fsLayer(t.sys.Name)
		f.states += census.StatesChecked
		f.wall += wall
		f.mountNanos += census.Obs.Stage(obs.StageMount).Nanos
	}
	if ph.tr != nil {
		ph.lay.censuses++
	}
	return outcome{ident: digest(prints...), counts: map[string]int{"violation_clusters": clusters}}, nil
}

// instrument wraps a system's config for a traced iteration: the NewFS and
// Checker seams, the metrics collector, and a journal for engine runs.
func (a *aceSeq2) instrument(cfg core.Config, ph *phase, j *obs.Journal, iter int) core.Config {
	cfg.NewFS = wrapNewFS(cfg.NewFS)
	cfg.Checker = wrapChecker(cfg.Checker, ph.tr, &ph.lay.chk, func(env core.RunEnv) uint64 {
		return spanID(env.Caps.Name, env.Workload.Name, iter)
	})
	cfg.Obs = obs.New()
	cfg.Journal = j
	return cfg
}

func (a *aceSeq2) verify(context.Context, *phase) error { return nil }

// fingerprint is campaign.Fingerprint without the obs snapshot, which only
// traced runs carry, so traced and untraced runs compare directly.
func fingerprint(c *harness.Census, viol []core.Violation) string {
	cp := *c
	cp.Obs = nil
	return campaign.Fingerprint(&cp, viol)
}
