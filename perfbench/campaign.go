package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
	"chipmunk/internal/report"
)

// kvShardSize is the campaign-kv shard size: 13 shards per system, so the
// lease, credit and fold path runs 91 times an iteration.
const kvShardSize = 4

// campaignKV is a loopback suite campaign: per system, an in-process
// coordinator and two campaign.RunWorker goroutines run the 50-workload KV
// suite in small shards under the WAL KV contract, on all seven fixed
// systems. Engine runs are short, so lease, credit and fold are a large
// share of the time; app WAL appends and recovery reads replace syscalls and
// tree capture, and the FS-oracle checker and the fuzzer are bypassed. The
// KV suite is fixed, so the seed only orders the systems of each iteration.
type campaignKV struct {
	seed    int64
	systems []harness.System
	// prints collects the distinct census fingerprints each system's
	// campaigns produced, for the serial comparison in verify.
	prints map[string]map[string]bool
	// out is where the durability report of traced iterations is written.
	out string
}

func kvSpec(fs string, stats bool) campaign.Spec {
	return campaign.Spec{FS: fs, Bugs: "none", Suite: "kv", App: "kv", Stats: stats}
}

func (c *campaignKV) setup(ctx context.Context, seed int64) error {
	c.seed = seed
	c.systems = harness.Systems()
	c.prints = map[string]map[string]bool{}
	for _, sys := range c.systems {
		// Each system's coordinator generates and fingerprints its suite.
		coord, err := campaign.NewCoordinator(campaign.CoordinatorConfig{Spec: kvSpec(sys.Name, false), ShardSize: kvShardSize})
		if err != nil {
			return err
		}
		if err := coord.Close(); err != nil {
			return err
		}
	}
	// Warm-up: the first KV workload on each system fills the engine's
	// pools, and a one-shard loopback campaign brings up a listener and two
	// workers end to end.
	spec := kvSpec(c.systems[0].Name, false)
	suite, err := spec.BuildSuite()
	if err != nil {
		return err
	}
	for _, sys := range c.systems {
		opts, err := kvSpec(sys.Name, false).Options()
		if err != nil {
			return err
		}
		if _, _, err := harness.Run(ctx, opts.ConfigFor(sys), suite[:1]); err != nil {
			return fmt.Errorf("%s warm-up: %w", sys.Name, err)
		}
	}
	spec.Max = kvShardSize
	_, err = runCampaign(ctx, spec, nil, nil)
	return err
}

// campaignRun is one loopback campaign's result.
type campaignRun struct {
	*loopbackRun
	census *harness.Census
	prints string
	stats  campaign.Stats
}

// runCampaign runs one loopback campaign: a coordinator, the wire tap and
// two campaign workers.
func runCampaign(ctx context.Context, spec campaign.Spec, ph *phase, tr *tracer) (*campaignRun, error) {
	var coord *campaign.Coordinator
	r := &campaignRun{}
	var viol []core.Violation
	lr, err := loopback{
		newCoord: func() (coordinator, error) {
			var err error
			coord, err = campaign.NewCoordinator(campaign.CoordinatorConfig{Spec: spec, ShardSize: kvShardSize})
			return coord, err
		},
		paths:     wirePaths{campaign.PathLease, campaign.PathResult, campaign.PathHeartbeat},
		workers:   engineWorkers,
		journaled: spec.Stats,
		runWorker: func(ctx context.Context, addr, id string, j *obs.Journal) error {
			return campaign.RunWorker(ctx, campaign.WorkerConfig{Addr: addr, ID: id, Journal: j})
		},
		wait: func(ctx context.Context) error {
			var err error
			r.census, viol, err = coord.Wait(ctx)
			return err
		},
	}.run(ctx, ph, tr, "campaign")
	if err != nil {
		return nil, err
	}
	r.loopbackRun, r.prints, r.stats = lr, fingerprint(r.census, viol), coord.Stats()
	return r, nil
}

func (c *campaignKV) iterate(ctx context.Context, ph *phase, i int) (outcome, error) {
	ph.lay.app, ph.lay.wire = true, "campaign"
	traced := ph.tr != nil
	prints := map[string]string{}
	violations := 0
	var rep report.DurabilityReport
	for _, k := range rand.New(rand.NewSource(inputSeed(c.seed, i))).Perm(len(c.systems)) {
		sys := c.systems[k]
		r, err := runCampaign(ctx, kvSpec(sys.Name, traced), ph, ph.tr)
		if err != nil {
			return outcome{}, fmt.Errorf("%s campaign: %w", sys.Name, err)
		}
		cen := r.census
		ph.addLoopback(r.loopbackRun, r.stats.PerWorker)
		ph.states += cen.StatesChecked
		ph.execs += cen.Workloads
		ph.attempted += cen.StatesChecked
		ph.failed += len(cen.Quarantined) + cen.SuppressedQuarantine +
			r.stats.Redispatched + r.stats.Rejected + r.stats.BadPayloads + r.stats.ShardsQuarantined
		ph.lay.redispatched += r.stats.Redispatched
		ph.lay.heartbeats += r.stats.Heartbeats
		violations += cen.Violations
		prints[sys.Name] = r.prints
		if traced {
			if cen.Obs != nil {
				ph.lay.snap.Merge(*cen.Obs)
				f := ph.lay.fsLayer(sys.Name)
				f.states += cen.StatesChecked
				f.wall += r.wall
				f.mountNanos += cen.Obs.Stage(obs.StageMount).Nanos
			}
			rep.Runs = append(rep.Runs, report.DurabilityRun{FS: sys.Name, Weak: sys.Weak,
				Workloads: cen.Workloads, StatesChecked: cen.StatesChecked, Elapsed: r.wall})
		}
	}
	if traced {
		rep.App, rep.AppBugs, rep.Suite = "kv", "none", "kv"
		t0 := time.Now()
		if err := report.WriteDurability(filepath.Join(c.out, "DURABILITY.md"), rep); err != nil {
			return outcome{}, err
		}
		ph.lay.censusNanos += time.Since(t0).Nanoseconds()
		ph.lay.censuses++
	}
	for sys, p := range prints {
		if c.prints[sys] == nil {
			c.prints[sys] = map[string]bool{}
		}
		c.prints[sys][p] = true
	}
	var ordered []string
	for _, sys := range c.systems {
		ordered = append(ordered, prints[sys.Name])
	}
	return outcome{ident: digest(ordered...), counts: map[string]int{"kv_violations": violations}}, nil
}

// verify checks the distributed ≡ serial contract: each system's campaign
// census fingerprint equals an in-process serial harness.Run of the same
// suite and config, and the KV contract holds (zero violations).
func (c *campaignKV) verify(ctx context.Context, ph *phase) error {
	for _, sys := range c.systems {
		spec := kvSpec(sys.Name, false)
		opts, err := spec.Options()
		if err != nil {
			return err
		}
		_, cfg, err := opts.Resolve()
		if err != nil {
			return err
		}
		suite, err := spec.BuildSuite()
		if err != nil {
			return err
		}
		census, viol, err := harness.Run(ctx, cfg, suite)
		if err != nil {
			return fmt.Errorf("%s serial run: %w", sys.Name, err)
		}
		want := fingerprint(census, viol)
		for got := range c.prints[sys.Name] {
			if got != want {
				return fmt.Errorf("%s: campaign census %s differs from serial %s", sys.Name, digest(got), digest(want))
			}
		}
		if len(viol) > 0 {
			return fmt.Errorf("%s: KV contract reported %d violations, want 0", sys.Name, len(viol))
		}
	}
	return nil
}
