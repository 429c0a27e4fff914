package main

import (
	"math"

	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
)

// engineStages are the disjoint engine stages a snapshot times.
var engineStages = []obs.Stage{obs.StageOracle, obs.StageRecord, obs.StageDedup,
	obs.StageReplay, obs.StageMount, obs.StageCheck}

// perLayer computes the per-layer metrics of a traced run. Engine, journal
// and checker numbers come from the traced phase; wire numbers and Go
// runtime counters come from the untraced reference phase, whose wire tap
// and runtime/metrics reads cost nothing the traced phase adds. A layer the
// workload bypasses reads 0.
func perLayer(ref, trc *phase) map[string]metric {
	l := &trc.lay
	s := &l.snap
	count := func(c obs.Counter) float64 { return float64(s.Count(c)) }
	stage := func(st obs.Stage) float64 { return float64(s.Stage(st).Nanos) }
	states, runs, fences := count(obs.CtrStatesChecked), count(obs.CtrWorkloads), count(obs.CtrFences)
	dedupHits := count(obs.CtrDedupHits)
	var stages float64
	for _, st := range engineStages {
		stages += stage(st)
	}
	var runNanos float64
	for _, ms := range l.runMs {
		runNanos += ms * 1e6
	}
	coreCheck, coreRecord := stage(obs.StageCheck), stage(obs.StageRecord)
	var appCheck, appRecord float64
	if l.app {
		appCheck, appRecord, coreCheck, coreRecord = coreCheck, coreRecord, 0, 0
	}
	handoff := 0.0
	if l.snapRunNanos > 0 {
		handoff = ratio(float64(l.snapRunNanos)-stages, states)
	}
	m := map[string]metric{
		"harness.run_ms_p50": {quantile(l.runMs, 0.5), "ms"},
		"harness.run_ms_p99": {quantile(l.runMs, 0.99), "ms"},
		"harness.idle_share": {idleShare(runNanos, float64(l.capacity)), "ratio"},

		"core.oracle_us_per_run":      {ratio(stage(obs.StageOracle), runs) / 1e3, "us"},
		"core.record_us_per_run":      {ratio(coreRecord, runs) / 1e3, "us"},
		"core.dedup_us_per_fence":     {ratio(stage(obs.StageDedup), fences) / 1e3, "us"},
		"core.dedup_hit_share":        {ratio(dedupHits, dedupHits+states), "ratio"},
		"core.replay_ns_per_state":    {ratio(stage(obs.StageReplay), states), "ns"},
		"core.check_us_per_state":     {ratio(coreCheck, states) / 1e3, "us"},
		"core.usability_us_per_state": {ratio(float64(l.chk.usabilityNanos.Load()), float64(l.chk.states.Load())) / 1e3, "us"},
		"core.handoff_ns_per_state":   {handoff, "ns"},

		"pmem.bytes_primed_per_run":         {ratio(count(obs.CtrBytesPrimed), runs), "B"},
		"pmem.bytes_materialized_per_state": {ratio(count(obs.CtrBytesMaterialized), states), "B"},
		"pmem.bytes_rolled_back_per_state":  {ratio(count(obs.CtrBytesRolledBack), states), "B"},
		"persist.fences_per_run":            {ratio(float64(s.PM.Fences), runs), "count"},
		"persist.nt_bytes_per_run":          {ratio(float64(s.PM.NTBytes), runs), "B"},

		"app.check_us_per_state": {ratio(appCheck, states) / 1e3, "us"},
		"app.record_us_per_run":  {ratio(appRecord, runs) / 1e3, "us"},

		"fuzz.self_us_per_exec": {fuzzSelf(trc, stages), "us"},
		"fuzz.corpus_entries":   {float64(l.corpus), "count"},
		"fuzz.coverage_edges":   {float64(l.coverage), "count"},

		"report.census_ms": {ratio(float64(l.censusNanos), float64(l.censuses)) / 1e6, "ms"},

		"go.alloc_bytes_per_state": {ratio(float64(ref.goRT.allocBytes), float64(ref.states)), "B"},
		"go.allocs_per_state":      {ratio(float64(ref.goRT.allocObjects), float64(ref.states)), "count"},
		"go.gc_cpu_share":          {ratio(ref.goRT.gcCPU, ref.goRT.totalCPU), "ratio"},

		"obs.tracing_overhead": {ratio(ratio(trc.clk.wall.Seconds(), float64(trc.states)),
			ratio(ref.clk.wall.Seconds(), float64(ref.states))), "ratio"},
	}
	for _, prefix := range []string{"campaign", "fleet"} {
		var t tapStats
		if ref.lay.wire == prefix {
			t = ref.tap
		}
		m[prefix+".lease_handler_us"] = metric{ratio(float64(t.leaseNanos), float64(t.leaseCalls)) / 1e3, "us"}
		m[prefix+".result_handler_us"] = metric{ratio(float64(t.resultNanos), float64(t.resultCalls)) / 1e3, "us"}
		m[prefix+".result_bytes_per_unit"] = metric{ratio(float64(t.resultBytes), float64(t.resultCalls)), "B"}
	}
	wait := ratio(float64(ref.tap.waitNanos), float64(ref.lay.capacity))
	m["campaign.worker_wait_share"] = metric{pick(ref.lay.wire == "campaign", wait), "ratio"}
	m["campaign.redispatched"] = metric{pick(ref.lay.wire == "campaign", float64(ref.lay.redispatched)), "count"}
	m["campaign.heartbeats"] = metric{pick(ref.lay.wire == "campaign", float64(ref.lay.heartbeats)), "count"}
	m["fleet.barrier_wait_share"] = metric{pick(ref.lay.wire == "fleet", wait), "ratio"}
	m["fleet.min_unit_share"] = metric{pick(ref.lay.wire == "fleet",
		ratio(float64(ref.tap.minUnitNanos), float64(ref.tap.unitNanos))), "ratio"}
	m["fleet.unit_imbalance"] = metric{pick(ref.lay.wire == "fleet", imbalance(ref.lay.perWorker)), "ratio"}
	m["fleet.min_unit_ms_p50"] = metric{quantile(ref.tap.minUnitMs, 0.5), "ms"}

	for _, sys := range harness.Systems() {
		f := l.fs[sys.Name]
		if f == nil {
			f = &fsLayer{}
		}
		m["fs."+sys.Name+".mount_us_per_state"] = metric{ratio(float64(f.mountNanos), float64(f.states)) / 1e3, "us"}
		m["fs."+sys.Name+".states_per_sec"] = metric{ratio(float64(f.states), f.wall.Seconds()), "states/s"}
	}
	return m
}

func pick(on bool, v float64) float64 {
	if on {
		return v
	}
	return 0
}

// idleShare is the share of engine-worker capacity spent outside engine runs.
func idleShare(runNanos, capacity float64) float64 {
	if capacity == 0 {
		return 0
	}
	return 1 - runNanos/capacity
}

// fuzzSelf is the fuzzer's own time per exec: worker-reported round time
// minus the engine stages of those rounds.
func fuzzSelf(trc *phase, stages float64) float64 {
	if trc.lay.wire != "fleet" || trc.execs == 0 {
		return 0
	}
	return (float64(trc.tap.roundElapsedNanos) - stages) / float64(trc.execs) / 1e3
}

// imbalance is max/min units credited per worker.
func imbalance(perWorker map[string]int) float64 {
	if len(perWorker) == 0 {
		return 0
	}
	lo, hi := math.MaxInt, 0
	for _, n := range perWorker {
		lo, hi = min(lo, n), max(hi, n)
	}
	return ratio(float64(hi), float64(lo))
}
