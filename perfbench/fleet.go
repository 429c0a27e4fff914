package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/fleet"
	"chipmunk/internal/obs"
	"chipmunk/internal/report"
)

// fuzzBudget is the exec budget of one soak: about 1.5 s on 2 CPUs, so a
// 20 s run repeats the soak a dozen times.
const fuzzBudget = 1000

// fleetFuzz is a loopback fleet soak on nova with injected bugs 4 and 5:
// an in-process fleet coordinator and two fleet.RunWorker goroutines run
// thousands of cap-2 engine runs in fuzzing rounds plus minimization
// leases, with FuzzSeed = seed and an exec budget, so every soak of a run
// renders the same census. Per-run floors (oracle, record, device priming),
// mutation and generation barriers dominate; dedup is near zero.
type fleetFuzz struct {
	seed int64
}

func fuzzSpec(seed int64, budget int, stats bool) campaign.Spec {
	return campaign.Spec{FS: "nova", Bugs: "4,5", Cap: 2, Fuzz: true, FuzzSeed: seed,
		BudgetExecs: budget, Stats: stats}
}

func (f *fleetFuzz) setup(ctx context.Context, seed int64) error {
	f.seed = seed
	// Warm-up: a one-round soak brings up a coordinator, a listener and a
	// worker end to end. One worker, so no lease waits on the 300 ms worker
	// poll, and a fixed fuzz seed, so set-up does the same work for any seed.
	_, err := runSoak(ctx, fuzzSpec(1, fleet.DefaultRoundExecs, false), nil, nil, 1)
	return err
}

// soakRun is one loopback soak's result.
type soakRun struct {
	*loopbackRun
	census report.FuzzCensus
	snap   *obs.Snapshot
	stats  fleet.Stats
}

// runSoak runs one loopback fleet soak: a coordinator, the wire tap and
// the given number of fleet workers.
func runSoak(ctx context.Context, spec campaign.Spec, ph *phase, tr *tracer, workers int) (*soakRun, error) {
	var coord *fleet.Coordinator
	r := &soakRun{}
	lr, err := loopback{
		newCoord: func() (coordinator, error) {
			var err error
			coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{Spec: spec})
			return coord, err
		},
		paths:     wirePaths{fleet.PathFuzzLease, fleet.PathFuzzResult, fleet.PathFuzzHeartbeat},
		workers:   workers,
		journaled: spec.Stats,
		runWorker: func(ctx context.Context, addr, id string, j *obs.Journal) error {
			return fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: addr, ID: id, Journal: j})
		},
		wait: func(ctx context.Context) error {
			var err error
			r.census, err = coord.Wait(ctx)
			return err
		},
	}.run(ctx, ph, tr, "soak")
	if err != nil {
		return nil, err
	}
	r.loopbackRun, r.snap, r.stats = lr, coord.MergedObs(), coord.Stats()
	return r, nil
}

func (f *fleetFuzz) iterate(ctx context.Context, ph *phase, i int) (outcome, error) {
	ph.lay.wire = "fleet"
	r, err := runSoak(ctx, fuzzSpec(inputSeed(f.seed, i), fuzzBudget, ph.tr != nil), ph, ph.tr, engineWorkers)
	if err != nil {
		return outcome{}, err
	}
	cen := r.census
	ph.addLoopback(r.loopbackRun, r.stats.PerWorker)
	ph.states += cen.StatesChecked
	ph.execs += cen.Execs
	ph.attempted += cen.StatesChecked
	ph.failed += cen.QuarantinedChecks + r.stats.Redispatched + r.stats.Rejected +
		r.stats.BadPayloads + r.stats.RoundsDropped + r.stats.MinDropped

	// The census is rendered without its spec hash, which covers Spec.Stats
	// and so differs between traced and untraced soaks of the same inputs.
	t0 := time.Now()
	cen.SpecHash = ""
	var b strings.Builder
	if err := report.WriteFuzzCensus(&b, cen); err != nil {
		return outcome{}, err
	}
	if ph.tr != nil {
		ph.lay.censusNanos += time.Since(t0).Nanoseconds()
		ph.lay.censuses++
		ph.lay.snap.Merge(*r.snap)
		fl := ph.lay.fsLayer("nova")
		fl.states += cen.StatesChecked
		fl.wall += r.wall
		fl.mountNanos += r.snap.Stage(obs.StageMount).Nanos
		ph.lay.corpus, ph.lay.coverage = cen.CorpusSize, cen.CoverageEdges
	}
	return outcome{ident: digest(b.String()), counts: map[string]int{
		"distinct_bugs":      len(cen.Clusters),
		"min_tasks":          r.stats.MinTasks,
		"min_dropped":        r.stats.MinDropped,
		"quarantined_checks": cen.QuarantinedChecks,
		"corpus_entries":     cen.CorpusSize,
		"coverage_edges":     cen.CoverageEdges,
		"rounds_credited":    cen.RoundsCredited,
		"execs":              cen.Execs,
	}}, nil
}

// verify checks that no soak dropped a minimization task.
func (f *fleetFuzz) verify(_ context.Context, ph *phase) error {
	for i, o := range ph.outs {
		if n := o.counts["min_dropped"]; n != 0 {
			return fmt.Errorf("soak %d dropped %d minimization tasks, want 0", i, n)
		}
	}
	return nil
}
