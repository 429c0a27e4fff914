package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/report"
)

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	// Spec must have Fuzz set and exactly one of BudgetExecs/BudgetNanos
	// nonzero. Defaulted knobs are normalized before hashing, so workers see
	// the resolved values.
	Spec     campaign.Spec
	LeaseTTL time.Duration // 0 = lease.DefaultTTL
	// Retries bounds failed dispatch attempts per round or minimization task
	// before it is dropped (0 = lease.DefaultRetries).
	Retries int
	// CheckpointPath, when set, appends credited results durably and — when
	// the file records this same soak — resumes by replaying them.
	CheckpointPath string
	// Journal, when non-nil, receives one event per dropped round/task.
	Journal *obs.Journal
	// Logf, when set, receives one line per lease/credit/fold event.
	Logf func(format string, args ...any)
}

// minTask is one reproducer-minimization unit. Tasks are created at
// generation folds — one per first-seen violation cluster, in sorted
// cluster-key order — so their ids are a pure function of the credited
// round set, like everything else in the fold. Its lease state lives in
// the minimization table's slot of the same id.
type minTask struct {
	cluster string
	text    string // representative reproducer (minimization input)
	// Outcome: verified means the minimized form re-tripped the cluster.
	verified bool
	minText  string
	minExecs int
}

// Stats summarizes the soak's control-plane history.
type Stats struct {
	Rounds         int
	RoundsCredited int
	RoundsDropped  int
	// MinDone counts resolved minimization tasks, dropped ones included.
	MinTasks    int
	MinDone     int
	MinDropped  int
	Generations int
	lease.Counters
}

// String renders the control-plane summary the -serve frontend prints.
func (st Stats) String() string {
	lines := []string{fmt.Sprintf("fleet: %d/%d rounds credited in %d generations (%s)",
		st.RoundsCredited, st.Rounds, st.Generations, st.Counters)}
	if st.MinTasks > 0 {
		lines = append(lines, fmt.Sprintf("  minimization: %d/%d tasks done (%d dropped)",
			st.MinDone, st.MinTasks, st.MinDropped))
	}
	if st.RoundsDropped > 0 {
		lines = append(lines, fmt.Sprintf(
			"  DEGRADED: %d rounds dropped after exhausting their dispatch attempts — their fuzzing work is missing from the census",
			st.RoundsDropped))
	}
	return strings.Join(append(lines, st.WorkerLines("units")...), "\n")
}

// Coordinator owns a fleet-fuzzing soak: the round/generation schedule,
// the canonical corpus log, the minimization queue, and the bug census. It
// is an http.Handler serving the fuzzing wire protocol (plus the campaign
// handshake path); the lease engine (internal/lease) runs the rest.
type Coordinator struct {
	info    campaign.SpecInfo
	spec    campaign.Spec
	started time.Time
	logf    func(format string, args ...any)
	mux     *http.ServeMux
	eng     *lease.Engine

	// execMode: BudgetExecs bounds the soak (fully deterministic).
	// Otherwise BudgetNanos bounds wall-clock from soakStart (persisted in
	// the checkpoint header, so a resumed soak keeps its original deadline).
	execMode  bool
	soakStart time.Time

	// The rest is guarded by the engine lock. rounds holds one slot per
	// scheduled round (growing a generation at a time in duration mode) and
	// results the credited round payloads; mins and tasks likewise for
	// minimization tasks.
	rounds       lease.Table
	results      []*FuzzResult
	mins         lease.Table
	tasks        []*minTask
	budgetClosed bool

	corpus   []CorpusEntry
	coverage map[uint64]bool
	// genCut[g] is the corpus-log length generation-g rounds fuzz against;
	// foldedGens = len(genCut)-1 is the number of fully folded generations.
	genCut      []int
	clusterSeen map[string]bool

	execs             int
	statesChecked     int
	retriedChecks     int
	quarantinedChecks int
	obsMerged         *obs.Snapshot
}

// soakJob is the Coordinator seen as the engine's lease.Job.
type soakJob Coordinator

// Pick hands out minimization tasks first (they gate completion and are
// cheap), then the lowest pending round whose generation is open.
func (j *soakJob) Pick(now time.Time) (*lease.Table, int, bool) {
	c := (*Coordinator)(j)
	if i, ok := c.mins.FirstPending(len(c.mins.Slots)); ok {
		return &c.mins, i, true
	}
	c.extendScheduleLocked(now)
	// Generation barrier: later rounds wait for the fold.
	i, ok := c.rounds.FirstPending((c.foldedGensLocked() + 1) * c.spec.GenRounds)
	return &c.rounds, i, ok
}

// Finished reports whether the soak is over: every scheduled round
// resolved and folded, the budget closed (duration mode), and every
// minimization task resolved.
func (j *soakJob) Finished() bool {
	c := (*Coordinator)(j)
	if !c.execMode && !c.budgetClosed {
		return false
	}
	if c.foldedGensLocked()*c.spec.GenRounds < len(c.rounds.Slots) {
		return false
	}
	return c.mins.Resolved()
}

// NewCoordinator builds the soak: normalizes and fingerprints the spec,
// lays out the round schedule, and — when CheckpointPath names a file
// recording this same soak — replays it so only the missing work is leased
// out again.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	spec := Normalize(cfg.Spec)
	if !spec.Fuzz {
		return nil, fmt.Errorf("fleet: spec is not a fuzz spec (Fuzz unset)")
	}
	if (spec.BudgetExecs > 0) == (spec.BudgetNanos > 0) {
		return nil, fmt.Errorf("fleet: exactly one of BudgetExecs and BudgetNanos must be set")
	}
	if _, err := spec.Options(); err != nil {
		return nil, err
	}
	hash := SpecHash(spec)
	execMode := spec.BudgetExecs > 0
	total := 0
	if execMode {
		total = (spec.BudgetExecs + spec.RoundExecs - 1) / spec.RoundExecs
	}
	c := &Coordinator{
		info: campaign.SpecInfo{
			CampaignID: soakID(spec, hash),
			Spec:       spec,
			SuiteHash:  hash,
			Shards:     total,
			ShardSize:  spec.RoundExecs,
			Workloads:  spec.BudgetExecs,
		},
		spec:        spec,
		started:     time.Now(),
		soakStart:   time.Now(),
		logf:        cfg.Logf,
		execMode:    execMode,
		coverage:    map[uint64]bool{},
		genCut:      []int{0},
		clusterSeen: map[string]bool{},
	}
	c.rounds = lease.Table{Kind: ResultRound, GiveUp: c.dropRound}
	c.mins = lease.Table{Kind: ResultMinimize, GiveUp: c.dropMin}
	c.growRounds(total)
	c.eng = lease.NewEngine(lease.Config{
		Hash: hash, HashName: "spec", TTL: cfg.LeaseTTL, Retries: cfg.Retries,
		Tables: []*lease.Table{&c.mins, &c.rounds}, Job: (*soakJob)(c),
		Journal: cfg.Journal, Logf: cfg.Logf,
	})
	status := func() any { return c.Status() }
	mux := http.NewServeMux()
	mux.HandleFunc(campaign.PathSpec, lease.Value(func() any { return c.info }))
	mux.HandleFunc(PathFuzzLease, lease.Call("lease", func(r *http.Request, req FuzzLeaseRequest) (FuzzLeaseResponse, error) {
		return lease.Hold(r.Context(), c.eng, req.Worker, req.SpecHash, c.responder(req.Cursor))
	}))
	mux.HandleFunc(PathFuzzResult, lease.Results(c.eng, c.Credit))
	mux.HandleFunc(PathFuzzHeartbeat, lease.Call("heartbeat", func(_ *http.Request, req FuzzHeartbeat) (lease.HeartbeatResponse, error) {
		return c.Heartbeat(req)
	}))
	mux.HandleFunc(campaign.PathStatus, lease.Value(status))
	mux.HandleFunc(campaign.PathDash, lease.Dashboard(fuzzDashTmpl, status, c.logf))
	mux.HandleFunc("/debug/metrics", lease.Metrics(c.MergedObs))
	c.mux = mux

	if cfg.CheckpointPath != "" {
		if err := c.attachCheckpoint(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	c.eng.Settle()
	return c, nil
}

func soakID(spec campaign.Spec, hash string) string {
	h := fnv.New64a()
	b, _ := json.Marshal(spec)
	h.Write(b)
	h.Write([]byte(hash))
	return fmt.Sprintf("f%016x", h.Sum64())
}

// Info returns the soak identity served on handshake. The campaign.SpecInfo
// fields are reinterpreted for fuzz mode: SuiteHash is the spec fingerprint
// (SpecHash), Shards the round count (0 while a duration budget is open),
// ShardSize the round exec count, Workloads the exec budget.
func (c *Coordinator) Info() campaign.SpecInfo { return c.info }

func (c *Coordinator) log(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

func (c *Coordinator) genOf(r int) int { return r / c.spec.GenRounds }

// foldedGensLocked is the number of fully folded generations.
func (c *Coordinator) foldedGensLocked() int { return len(c.genCut) - 1 }

// roundExecsLocked is round r's iteration count: RoundExecs, except the
// last round of an exec budget takes the remainder.
func (c *Coordinator) roundExecsLocked(r int) int {
	if c.execMode && r == len(c.rounds.Slots)-1 {
		if rem := c.spec.BudgetExecs - r*c.spec.RoundExecs; rem > 0 {
			return rem
		}
	}
	return c.spec.RoundExecs
}

// genRangeLocked returns the round index range of generation g among
// currently scheduled rounds.
func (c *Coordinator) genRangeLocked(g int) (lo, hi int) {
	lo = g * c.spec.GenRounds
	hi = lo + c.spec.GenRounds
	hi = min(hi, len(c.rounds.Slots))
	return lo, hi
}

// foldLocked advances the generation barrier as far as the resolved rounds
// allow. For each fully resolved generation it absorbs the credited rounds'
// corpus candidates in canonical order — sorted by (FNV-64a of text, text),
// admitted iff still carrying an unseen signature — and opens minimization
// tasks for first-seen violation clusters. Engine lock held.
func (c *Coordinator) foldLocked() {
	for {
		g := c.foldedGensLocked()
		lo, hi := c.genRangeLocked(g)
		if lo >= hi {
			return // generation not scheduled (yet)
		}
		for r := lo; r < hi; r++ {
			if s := c.rounds.Slots[r].State; s != lease.Credited && s != lease.GivenUp {
				return // generation still has unresolved rounds
			}
		}
		var cands []CorpusEntry
		var viols []FuzzViolation
		for r := lo; r < hi; r++ {
			if c.rounds.Slots[r].State != lease.Credited {
				continue
			}
			cands = append(cands, c.results[r].NewEntries...)
			viols = append(viols, c.results[r].Violations...)
		}
		sort.Slice(cands, func(i, j int) bool {
			ki, kj := entryKey(cands[i]), entryKey(cands[j])
			if ki != kj {
				return ki < kj
			}
			return cands[i].Text < cands[j].Text
		})
		admitted := 0
		for _, e := range cands {
			novel := false
			for _, s := range e.Sigs {
				if !c.coverage[s] {
					novel = true
					break
				}
			}
			if !novel {
				continue
			}
			for _, s := range e.Sigs {
				c.coverage[s] = true
			}
			e.Sum = EntrySum(e)
			c.corpus = append(c.corpus, e)
			admitted++
		}
		c.genCut = append(c.genCut, len(c.corpus))
		c.log("fold: generation %d closed (rounds [%d,%d)): +%d corpus entries (%d total, %d edges)",
			g, lo, hi, admitted, len(c.corpus), len(c.coverage))

		// First-seen clusters open minimization tasks. The representative is
		// the lexicographically smallest reproducer text in this generation —
		// stable under any arrival order — and ids follow sorted cluster-key
		// order, so the whole queue is a pure function of the fold.
		rep := map[string]string{}
		for _, v := range viols {
			key := v.ClusterKey()
			if c.clusterSeen[key] {
				continue
			}
			if cur, ok := rep[key]; !ok || v.Text < cur {
				rep[key] = v.Text
			}
		}
		keys := make([]string, 0, len(rep))
		for k := range rep {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c.clusterSeen[k] = true
			c.log("minimize: task %d opened for cluster %q", len(c.tasks), k)
			c.tasks = append(c.tasks, &minTask{cluster: k, text: rep[k]})
			c.mins.Slots = append(c.mins.Slots, lease.Slot{})
		}
	}
}

// extendScheduleLocked appends one more generation of rounds in duration
// mode when the previous ones are fully folded and the wall-clock budget is
// still open. Engine lock held.
func (c *Coordinator) extendScheduleLocked(now time.Time) {
	if c.execMode || c.budgetClosed {
		return
	}
	if now.Sub(c.soakStart) >= time.Duration(c.spec.BudgetNanos) {
		c.budgetClosed = true
		c.log("budget: wall-clock budget spent; no new generations")
		return
	}
	if len(c.rounds.Slots) != c.foldedGensLocked()*c.spec.GenRounds {
		return // the current generation block is still in flight
	}
	c.growRounds(len(c.rounds.Slots) + c.spec.GenRounds)
}

// growRounds extends the round schedule to n rounds. Engine lock held, or
// the coordinator not yet shared.
func (c *Coordinator) growRounds(n int) {
	c.rounds.Slots = append(c.rounds.Slots, make([]lease.Slot, n-len(c.rounds.Slots))...)
	c.results = append(c.results, make([]*FuzzResult, n-len(c.results))...)
}

// dropRound is the round table's give-up hook. A drop resolves the round
// for the generation barrier, so it is persisted (the fold depends on it),
// journaled, and marks the soak degraded. Engine lock held.
func (c *Coordinator) dropRound(i int) (obs.Event, any) {
	s := c.rounds.Slots[i]
	c.log("round DROPPED: round %d after %d failed attempts, last worker %q: %s",
		i, s.Attempts, s.Worker, s.LastErr)
	c.foldLocked()
	return obs.Event{
			Type: "fuzz-round-drop", FS: c.spec.FS, Workload: "fuzz",
			Worker: s.Worker, Sys: -1, Rank: i, Detail: s.LastErr,
		}, fleetCkptLine{
			Type: "drop", Round: i, Worker: s.Worker, Err: s.LastErr, Attempts: s.Attempts,
		}
}

// dropMin is the minimization table's give-up hook: the task resolves
// unverified, and the census falls back to the unminimized representative
// rather than stalling the soak. Engine lock held.
func (c *Coordinator) dropMin(i int) (obs.Event, any) {
	s, m := c.mins.Slots[i], c.tasks[i]
	c.log("minimize task %d DROPPED after %d failed attempts: census keeps the unminimized reproducer", i, s.Attempts)
	return obs.Event{
		Type: "fuzz-min-drop", FS: c.spec.FS, Workload: "fuzz",
		Worker: s.Worker, Sys: -1, Rank: i, Detail: m.cluster + ": " + s.LastErr,
	}, fleetCkptLine{Type: "mindrop", MinCluster: m.cluster}
}

// Lease hands out the next unit of fuzzing work (see soakJob.Pick). A
// worker that re-requests while still holding a lease gets the same unit
// back with a fresh deadline — the recovery path for a lease response
// discarded as corrupt. Lease never blocks; the HTTP handler holds a
// LeaseWait at the coordinator instead (lease.Hold).
func (c *Coordinator) Lease(req FuzzLeaseRequest) (FuzzLeaseResponse, error) {
	return lease.Lease(c.eng, req.Worker, req.SpecHash, c.responder(req.Cursor))
}

// responder renders lease answers for a worker whose corpus cache holds
// cursor entries: a round grant ships the corpus suffix it is missing.
func (c *Coordinator) responder(cursor int) lease.Responder[FuzzLeaseResponse] {
	return func(status string, t *lease.Table, i int) FuzzLeaseResponse {
		ttl := int64(c.eng.TTL())
		switch {
		case status != "":
			return FuzzLeaseResponse{Status: status}
		case t == &c.mins:
			m := c.tasks[i]
			return FuzzLeaseResponse{
				Status: LeaseMinimize, MinID: i, MinCluster: m.cluster, MinText: m.text,
				MinBudget: c.spec.MinExecs, TTLNanos: ttl,
			}
		}
		cut := c.genCut[c.genOf(i)]
		base := min(max(cursor, 0), cut)
		return FuzzLeaseResponse{
			Status:   LeaseRound,
			Round:    i,
			Execs:    c.roundExecsLocked(i),
			Seed:     RoundSeed(c.spec.FuzzSeed, i),
			Corpus:   append([]CorpusEntry(nil), c.corpus[base:cut]...),
			Base:     base,
			Cursor:   cut,
			TTLNanos: ttl,
		}
	}
}

// Credit records one result, at most once per unit: round results feed the
// generation fold, minimization results close their tasks. Duplicate
// results are discarded (they are byte-identical by the determinism
// contract — counting both would double-credit); error payloads are failed
// dispatch attempts.
func (c *Coordinator) Credit(p *FuzzResult) (lease.CreditResponse, error) {
	vet := func(i int) error {
		if p.Kind == ResultMinimize && p.MinCluster != c.tasks[i].cluster {
			return fmt.Errorf("minimize task %d cluster mismatch: coordinator has %q, result says %q",
				i, c.tasks[i].cluster, p.MinCluster)
		}
		return nil
	}
	return c.eng.Credit(p, vet, func(i int) any {
		if p.Kind == ResultMinimize {
			c.creditMinLocked(i, p)
			return fleetCkptLine{Type: "min", Payload: p}
		}
		c.creditRoundLocked(i, p)
		c.foldLocked()
		return fleetCkptLine{Type: "round", Payload: p}
	})
}

// creditRoundLocked applies round i's result to the running totals —
// shared by the wire path and checkpoint replay. Engine lock held.
func (c *Coordinator) creditRoundLocked(i int, p *FuzzResult) {
	c.results[i] = p
	c.execs += p.Execs
	c.statesChecked += p.StatesChecked
	c.retriedChecks += p.RetriedChecks
	c.quarantinedChecks += p.QuarantinedChecks
	if p.Obs != nil {
		if c.obsMerged == nil {
			c.obsMerged = &obs.Snapshot{}
		}
		c.obsMerged.Merge(*p.Obs)
	}
}

// creditMinLocked applies minimization task i's result — shared by the
// wire path and checkpoint replay. Engine lock held.
func (c *Coordinator) creditMinLocked(i int, p *FuzzResult) {
	m := c.tasks[i]
	m.verified = p.MinVerified
	m.minText = p.MinText
	m.minExecs = p.MinExecs
}

// Heartbeat extends a live lease; refusal tells the worker it lost the
// lease and should abandon the unit.
func (c *Coordinator) Heartbeat(req FuzzHeartbeat) (lease.HeartbeatResponse, error) {
	return c.eng.Heartbeat(req.SpecHash, req.Kind, req.ID, req.Worker, req.Execs)
}

// Degraded reports whether the soak dropped rounds: the census is missing
// their fuzzing work, and the CLI exits with the degraded code.
func (c *Coordinator) Degraded() bool { return c.Stats().RoundsDropped > 0 }

// Stats snapshots the control-plane counters.
func (c *Coordinator) Stats() (st Stats) {
	c.eng.Locked(func() {
		st = Stats{
			Rounds:         len(c.rounds.Slots),
			RoundsCredited: c.rounds.Count(lease.Credited),
			RoundsDropped:  c.rounds.Count(lease.GivenUp),
			MinTasks:       len(c.mins.Slots),
			MinDone:        c.mins.Count(lease.Credited) + c.mins.Count(lease.GivenUp),
			MinDropped:     c.mins.Count(lease.GivenUp),
			Generations:    c.foldedGensLocked(),
			Counters:       c.eng.CountersLocked(),
		}
	})
	return st
}

// Census folds the credited rounds — in round order, which checkpoint
// replay and live crediting both preserve — into the deduplicated bug
// census. With an exec budget the value is a pure function of the spec;
// with a duration budget it is still independent of result arrival order
// over the same credited round set.
func (c *Coordinator) Census() (cen report.FuzzCensus) {
	c.eng.Locked(func() { cen = c.censusLocked() })
	return cen
}

func (c *Coordinator) censusLocked() report.FuzzCensus {
	var events []obs.Event
	rep := map[string]string{}
	for i := range c.rounds.Slots {
		if c.rounds.Slots[i].State != lease.Credited {
			continue
		}
		for _, v := range c.results[i].Violations {
			events = append(events, v.Event())
			key := v.ClusterKey()
			if cur, ok := rep[key]; !ok || v.Text < cur {
				rep[key] = v.Text
			}
		}
	}
	clusters := report.TriageEvents(events)
	minByCluster := map[string]*minTask{}
	minVerified := 0
	for _, m := range c.tasks {
		minByCluster[m.cluster] = m
		if m.verified {
			minVerified++
		}
	}
	out := report.FuzzCensus{
		SpecHash:          c.info.SuiteHash,
		FS:                c.spec.FS,
		Bugs:              c.spec.Bugs,
		App:               c.spec.App,
		BudgetExecs:       c.spec.BudgetExecs,
		BudgetNanos:       c.spec.BudgetNanos,
		Execs:             c.execs,
		StatesChecked:     c.statesChecked,
		QuarantinedChecks: c.quarantinedChecks,
		RoundsCredited:    c.rounds.Count(lease.Credited),
		RoundsDropped:     c.rounds.Count(lease.GivenUp),
		CorpusSize:        len(c.corpus),
		CoverageEdges:     len(c.coverage),
		MinTasks:          len(c.tasks),
		MinVerified:       minVerified,
	}
	for _, tc := range clusters {
		key := tc.Kind + "|" + tc.FS + "|" + tc.Prefix
		b := report.FuzzBug{TriageCluster: tc, Reproducer: rep[key]}
		if m := minByCluster[key]; m != nil && m.verified && m.minText != "" {
			b.Reproducer = m.minText
			b.Minimized = true
			b.Verified = true
		}
		out.Clusters = append(out.Clusters, b)
	}
	return out
}

// MergedObs is the soak's metrics snapshot: the merged per-round engine
// collectors plus the fleet-level series (fuzz-execs, corpus-entries,
// coverage-edges, distinct-bugs) /debug/metrics exposes.
func (c *Coordinator) MergedObs() *obs.Snapshot {
	s := &obs.Snapshot{}
	c.eng.Locked(func() { c.mergedObsLocked(s) })
	return s
}

func (c *Coordinator) mergedObsLocked(s *obs.Snapshot) {
	if c.obsMerged != nil {
		s.Merge(*c.obsMerged)
	}
	if s.Counters == nil {
		s.Counters = make(map[string]int64, 4)
	}
	cen := c.censusLocked()
	s.Counters[obs.CtrFuzzExecs.String()] = int64(c.execs)
	s.Counters[obs.CtrCorpusEntries.String()] = int64(len(c.corpus))
	s.Counters[obs.CtrCoverageEdges.String()] = int64(len(c.coverage))
	s.Counters[obs.CtrDistinctBugs.String()] = int64(len(cen.Clusters))
}

// Corpus returns a copy of the canonical corpus log (tests, corpus export).
func (c *Coordinator) Corpus() (out []CorpusEntry) {
	c.eng.Locked(func() { out = append([]CorpusEntry(nil), c.corpus...) })
	return out
}

// Drain stops issuing new leases; in-flight units may still credit. Held
// lease requests are answered LeaseDone at once.
func (c *Coordinator) Drain() { c.eng.Drain() }

// Wait blocks until the soak completes, fails, or ctx is cancelled.
// Cancellation is the graceful path: stop leasing, keep crediting in-flight
// units to the checkpoint until they report or expire, return the partial
// census with ctx's error.
func (c *Coordinator) Wait(ctx context.Context) (report.FuzzCensus, error) {
	failed, err := c.eng.Wait(ctx)
	if failed != nil {
		return report.FuzzCensus{}, failed
	}
	return c.Census(), err
}

// Close releases the checkpoint file handle. A closed coordinator drains:
// it issues no more leases, and held lease requests are answered LeaseDone.
func (c *Coordinator) Close() error { return c.eng.Close() }

// attachCheckpoint loads, validates, and replays the checkpoint, then opens
// it for appending. Replay pushes the recorded round credits and drops
// through the same fold state machine as live crediting — the fold is a
// pure function of the resolved round set, so the reconstructed corpus,
// coverage, and minimization queue are exactly the dead coordinator's.
func (c *Coordinator) attachCheckpoint(path string) error {
	st, err := LoadCheckpoint(path)
	if err != nil {
		return err
	}
	if err := st.Validate(c.info.SuiteHash); err != nil {
		return err
	}
	if st.Skipped > 0 {
		c.log("checkpoint: skipped %d corrupt/torn lines in %s", st.Skipped, path)
	}
	if st.Header != nil && st.Header.StartUnixNanos != 0 {
		// Duration budgets measure wall-clock from the soak's original start:
		// a killed-and-resumed soak keeps its deadline instead of restarting
		// the clock.
		c.soakStart = time.Unix(0, st.Header.StartUnixNanos)
	}

	// Rounds first (credits, then drops), in round order; the fold advances
	// as generations resolve. ensureRoundLocked grows the duration-mode
	// schedule to cover recorded indices. The coordinator is not yet shared,
	// so the replay runs without the engine lock.
	sort.Slice(st.Rounds, func(i, j int) bool { return st.Rounds[i].Round < st.Rounds[j].Round })
	for _, p := range st.Rounds {
		if p.SpecHash != c.info.SuiteHash || p.Round < 0 || !c.ensureRoundLocked(p.Round) {
			c.log("checkpoint: ignoring foreign round record (round %d, hash %s)", p.Round, p.SpecHash)
			continue
		}
		if c.eng.Restore(&c.rounds, p.Round) {
			c.creditRoundLocked(p.Round, p)
		}
	}
	for _, d := range st.Drops {
		if d.Round < 0 || !c.ensureRoundLocked(d.Round) {
			c.log("checkpoint: ignoring out-of-range drop record (round %d)", d.Round)
			continue
		}
		if slot := &c.rounds.Slots[d.Round]; slot.State == lease.Pending {
			*slot = lease.Slot{State: lease.GivenUp, Worker: d.Worker, LastErr: d.Err, Attempts: d.Attempts}
		}
	}
	c.foldLocked()

	// Minimization records match by cluster key: task ids are deterministic,
	// but the key is self-describing and survives id-order evolution.
	byCluster := map[string]int{}
	for i, m := range c.tasks {
		byCluster[m.cluster] = i
	}
	for _, p := range st.Mins {
		i, ok := byCluster[p.MinCluster]
		if !ok || p.SpecHash != c.info.SuiteHash {
			c.log("checkpoint: ignoring foreign minimize record (cluster %q)", p.MinCluster)
			continue
		}
		if c.eng.Restore(&c.mins, i) {
			c.creditMinLocked(i, p)
		}
	}
	for _, cluster := range st.MinDrops {
		if i, ok := byCluster[cluster]; ok && c.mins.Slots[i].State == lease.Pending {
			c.mins.Slots[i].State = lease.GivenUp
		}
	}

	var header any
	if st.Header == nil {
		header = fleetCkptLine{
			Type:           "fleet",
			CampaignID:     c.info.CampaignID,
			SpecHash:       c.info.SuiteHash,
			FS:             c.spec.FS,
			RoundExecs:     c.spec.RoundExecs,
			GenRounds:      c.spec.GenRounds,
			BudgetExecs:    c.spec.BudgetExecs,
			BudgetNanos:    c.spec.BudgetNanos,
			StartUnixNanos: c.soakStart.UnixNano(),
		}
	}
	log, err := lease.OpenLog(path, header)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	c.eng.Attach(log)
	if resumed := c.eng.Counters().Resumed; resumed > 0 {
		c.log("checkpoint: resumed %d units from %s (%d generations folded, corpus %d)",
			resumed, path, c.foldedGensLocked(), len(c.corpus))
	}
	return nil
}

// ensureRoundLocked grows the duration-mode schedule (whole generations at
// a time) to cover round r; in exec mode it only reports whether r is in
// range. Caller owns the coordinator exclusively (construction) or holds
// the engine lock.
func (c *Coordinator) ensureRoundLocked(r int) bool {
	if r < len(c.rounds.Slots) {
		return true
	}
	if c.execMode {
		return false
	}
	c.growRounds((c.genOf(r) + 1) * c.spec.GenRounds)
	return true
}

// --- HTTP surface -------------------------------------------------------

// ServeHTTP serves the fuzzing wire protocol.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}
