package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/obs"
	"chipmunk/internal/report"
)

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	// Spec must have Fuzz set and exactly one of BudgetExecs/BudgetNanos
	// nonzero. Defaulted knobs are normalized before hashing, so workers see
	// the resolved values.
	Spec     campaign.Spec
	LeaseTTL time.Duration // 0 = campaign.DefaultLeaseTTL
	// Retries bounds failed dispatch attempts per round or minimization task
	// before it is dropped (0 = campaign.DefaultShardRetries).
	Retries int
	// CheckpointPath, when set, appends credited results durably and — when
	// the file records this same soak — resumes by replaying them.
	CheckpointPath string
	// Journal, when non-nil, receives one event per dropped round/task.
	Journal *obs.Journal
	// Logf, when set, receives one line per lease/credit/fold event.
	Logf func(format string, args ...any)
}

type roundState uint8

const (
	roundPending roundState = iota
	roundLeased
	roundDone
	roundDropped
)

type roundSlot struct {
	state    roundState
	worker   string
	deadline time.Time
	leasedAt time.Time
	lastBeat time.Time
	progress int
	attempts int
	lastErr  string
	result   *FuzzResult
}

type minState uint8

const (
	minPending minState = iota
	minLeased
	minDone
)

// minTask is one reproducer-minimization unit. Tasks are created at
// generation folds — one per first-seen violation cluster, in sorted
// cluster-key order — so their ids are a pure function of the credited
// round set, like everything else in the fold.
type minTask struct {
	id       int
	cluster  string
	text     string // representative reproducer (minimization input)
	state    minState
	worker   string
	deadline time.Time
	leasedAt time.Time
	lastBeat time.Time
	attempts int
	lastErr  string
	// Outcome: dropped means the task spent its attempts (done, unverified,
	// no result); verified means the minimized form re-tripped the cluster.
	dropped  bool
	verified bool
	minText  string
	minExecs int
}

// Stats summarizes the soak's control-plane history.
type Stats struct {
	Rounds         int
	RoundsCredited int
	RoundsDropped  int
	MinTasks       int
	MinDone        int
	MinDropped     int
	Resumed        int
	Redispatched   int
	Duplicates     int
	Rejected       int
	BadPayloads    int
	Heartbeats     int
	Generations    int
	PerWorker      map[string]int
}

// String renders the control-plane summary the -serve frontend prints.
func (st Stats) String() string {
	lines := []string{fmt.Sprintf(
		"fleet: %d/%d rounds credited in %d generations (%d resumed from checkpoint, %d re-dispatched, %d duplicates discarded, %d rejected, %d bad payloads, %d heartbeats)",
		st.RoundsCredited, st.Rounds, st.Generations, st.Resumed, st.Redispatched,
		st.Duplicates, st.Rejected, st.BadPayloads, st.Heartbeats)}
	if st.MinTasks > 0 {
		lines = append(lines, fmt.Sprintf("  minimization: %d/%d tasks done (%d dropped)",
			st.MinDone, st.MinTasks, st.MinDropped))
	}
	if st.RoundsDropped > 0 {
		lines = append(lines, fmt.Sprintf(
			"  DEGRADED: %d rounds dropped after exhausting their dispatch attempts — their fuzzing work is missing from the census",
			st.RoundsDropped))
	}
	workers := make([]string, 0, len(st.PerWorker))
	for w := range st.PerWorker {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	for _, w := range workers {
		lines = append(lines, fmt.Sprintf("  %-20s %d units", w, st.PerWorker[w]))
	}
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += l
	}
	return out
}

// Coordinator owns a fleet-fuzzing soak: the round/generation state
// machine, the canonical corpus log, the minimization queue, the bug
// census, and the checkpoint. It is an http.Handler serving the fuzzing
// wire protocol (plus the campaign handshake path).
type Coordinator struct {
	info     campaign.SpecInfo
	spec     campaign.Spec
	leaseTTL time.Duration
	retries  int
	journal  *obs.Journal
	started  time.Time
	logf     func(format string, args ...any)
	mux      *http.ServeMux

	// execMode: BudgetExecs bounds the soak (fully deterministic).
	// Otherwise BudgetNanos bounds wall-clock from soakStart (persisted in
	// the checkpoint header, so a resumed soak keeps its original deadline).
	execMode    bool
	totalRounds int // exec mode: fixed; duration mode: len(rounds), growing
	soakStart   time.Time

	mu           sync.Mutex
	rounds       []roundSlot
	budgetClosed bool

	corpus   []CorpusEntry
	coverage map[uint64]bool
	// genCut[g] is the corpus-log length generation-g rounds fuzz against;
	// foldedGens = len(genCut)-1 is the number of fully folded generations.
	genCut []int

	mins        []*minTask
	clusterSeen map[string]bool

	execs             int
	statesChecked     int
	retriedChecks     int
	quarantinedChecks int
	roundsCredited    int
	roundsDropped     int
	obsMerged         *obs.Snapshot

	resumed      int
	redispatched int
	duplicates   int
	rejected     int
	badPayloads  int
	heartbeats   int
	perWorker    map[string]int
	workers      map[string]time.Time

	draining bool
	failed   error
	ckpt     *Checkpoint
	// wake releases held lease requests on every change that can turn a
	// LeaseWait into a grant or LeaseDone: a credit (and the generation
	// fold and minimization tasks it may open), a failed dispatch attempt,
	// Drain, Close.
	wake campaign.Waker

	doneOnce sync.Once
	doneCh   chan struct{}
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
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = campaign.DefaultLeaseTTL
	}
	retries := cfg.Retries
	if retries <= 0 {
		retries = campaign.DefaultShardRetries
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
		leaseTTL:    ttl,
		retries:     retries,
		journal:     cfg.Journal,
		started:     time.Now(),
		soakStart:   time.Now(),
		logf:        cfg.Logf,
		execMode:    execMode,
		totalRounds: total,
		rounds:      make([]roundSlot, total),
		coverage:    map[uint64]bool{},
		genCut:      []int{0},
		clusterSeen: map[string]bool{},
		perWorker:   map[string]int{},
		workers:     map[string]time.Time{},
		doneCh:      make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc(campaign.PathSpec, c.handleSpec)
	mux.HandleFunc(PathFuzzLease, c.handleLease)
	mux.HandleFunc(PathFuzzResult, c.handleResult)
	mux.HandleFunc(PathFuzzHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(campaign.PathStatus, c.handleStatus)
	mux.HandleFunc(campaign.PathDash, c.handleDash)
	mux.HandleFunc("/debug/metrics", c.handleMetrics)
	c.mux = mux

	if cfg.CheckpointPath != "" {
		if err := c.attachCheckpoint(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
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

func (c *Coordinator) complete() {
	c.doneOnce.Do(func() { close(c.doneCh) })
}

func (c *Coordinator) genOf(r int) int { return r / c.spec.GenRounds }

// foldedGensLocked is the number of fully folded generations.
func (c *Coordinator) foldedGensLocked() int { return len(c.genCut) - 1 }

// roundExecsLocked is round r's iteration count: RoundExecs, except the
// last round of an exec budget takes the remainder.
func (c *Coordinator) roundExecsLocked(r int) int {
	if c.execMode && r == c.totalRounds-1 {
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
	if hi > len(c.rounds) {
		hi = len(c.rounds)
	}
	return lo, hi
}

// foldLocked advances the generation barrier as far as the resolved rounds
// allow. For each fully resolved generation it absorbs the credited rounds'
// corpus candidates in canonical order — sorted by (FNV-64a of text, text),
// admitted iff still carrying an unseen signature — and opens minimization
// tasks for first-seen violation clusters. Caller holds c.mu.
func (c *Coordinator) foldLocked() {
	for {
		g := c.foldedGensLocked()
		lo, hi := c.genRangeLocked(g)
		if lo >= hi {
			return // generation not scheduled (yet)
		}
		for r := lo; r < hi; r++ {
			if s := c.rounds[r].state; s != roundDone && s != roundDropped {
				return // generation still has unresolved rounds
			}
		}
		var cands []CorpusEntry
		var viols []FuzzViolation
		for r := lo; r < hi; r++ {
			if c.rounds[r].state != roundDone {
				continue
			}
			cands = append(cands, c.rounds[r].result.NewEntries...)
			viols = append(viols, c.rounds[r].result.Violations...)
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
			m := &minTask{id: len(c.mins), cluster: k, text: rep[k]}
			c.mins = append(c.mins, m)
			c.log("minimize: task %d opened for cluster %q", m.id, k)
		}
	}
}

// extendScheduleLocked appends one more generation of rounds in duration
// mode when the previous ones are fully folded and the wall-clock budget is
// still open. Caller holds c.mu.
func (c *Coordinator) extendScheduleLocked(now time.Time) {
	if c.execMode || c.budgetClosed {
		return
	}
	if now.Sub(c.soakStart) >= time.Duration(c.spec.BudgetNanos) {
		c.budgetClosed = true
		c.log("budget: wall-clock budget spent; no new generations")
		return
	}
	if len(c.rounds) != c.foldedGensLocked()*c.spec.GenRounds {
		return // the current generation block is still in flight
	}
	c.rounds = append(c.rounds, make([]roundSlot, c.spec.GenRounds)...)
	c.totalRounds = len(c.rounds)
}

// completedLocked reports whether the soak is finished: every scheduled
// round resolved and folded, the budget closed (duration mode), and every
// minimization task done. Caller holds c.mu.
func (c *Coordinator) completedLocked() bool {
	if !c.execMode && !c.budgetClosed {
		return false
	}
	if c.foldedGensLocked()*c.spec.GenRounds < len(c.rounds) {
		return false
	}
	for _, m := range c.mins {
		if m.state != minDone {
			return false
		}
	}
	return true
}

func (c *Coordinator) maybeCompleteLocked() {
	if c.failed != nil || c.completedLocked() {
		c.complete()
	}
}

// reclaimLocked reverts expired leases for re-dispatch; each expiry is a
// failed dispatch attempt. Caller holds c.mu.
func (c *Coordinator) reclaimLocked(now time.Time) {
	for i := range c.rounds {
		s := &c.rounds[i]
		if s.state == roundLeased && now.After(s.deadline) {
			c.failRoundLocked(i, s.worker, "lease expired (worker gone or stalled)")
		}
	}
	for _, m := range c.mins {
		if m.state == minLeased && now.After(m.deadline) {
			c.failMinLocked(m, m.worker, "lease expired (worker gone or stalled)")
		}
	}
}

// failRoundLocked records one failed dispatch attempt for a leased round:
// revert to pending, or drop once the attempt budget is spent. A drop
// resolves the round for the generation barrier, is persisted (the fold
// depends on it), journaled, and marks the soak degraded. Caller holds c.mu.
func (c *Coordinator) failRoundLocked(i int, worker, cause string) {
	s := &c.rounds[i]
	s.attempts++
	s.lastErr = cause
	s.worker = worker
	c.wake.Wake()
	if s.attempts < c.retries {
		c.log("round %d attempt %d/%d failed (worker %s): %s — re-dispatching",
			i, s.attempts, c.retries, worker, cause)
		s.state = roundPending
		c.redispatched++
		return
	}
	s.state = roundDropped
	c.roundsDropped++
	d := RoundDrop{Round: i, Worker: worker, Err: cause, Attempts: s.attempts}
	c.log("round DROPPED: round %d after %d failed attempts, last worker %q: %s",
		i, s.attempts, worker, cause)
	c.journal.Emit(obs.Event{
		Type: "fuzz-round-drop", FS: c.spec.FS, Workload: "fuzz",
		Worker: worker, Sys: -1, Rank: i, Detail: cause,
	})
	if err := c.ckpt.AppendDrop(d); err != nil && c.failed == nil {
		c.failed = err
	}
	c.foldLocked()
	c.maybeCompleteLocked()
}

// failMinLocked is failRoundLocked for minimization tasks. A spent task
// resolves done-unverified: the census falls back to the unminimized
// representative rather than stalling the soak. Caller holds c.mu.
func (c *Coordinator) failMinLocked(m *minTask, worker, cause string) {
	m.attempts++
	m.lastErr = cause
	m.worker = worker
	c.wake.Wake()
	if m.attempts < c.retries {
		c.log("minimize task %d attempt %d/%d failed (worker %s): %s — re-dispatching",
			m.id, m.attempts, c.retries, worker, cause)
		m.state = minPending
		c.redispatched++
		return
	}
	m.state = minDone
	m.dropped = true
	c.log("minimize task %d DROPPED after %d failed attempts: census keeps the unminimized reproducer", m.id, m.attempts)
	c.journal.Emit(obs.Event{
		Type: "fuzz-min-drop", FS: c.spec.FS, Workload: "fuzz",
		Worker: worker, Sys: -1, Rank: m.id, Detail: m.cluster + ": " + cause,
	})
	if err := c.ckpt.AppendMinDrop(m.cluster); err != nil && c.failed == nil {
		c.failed = err
	}
	c.maybeCompleteLocked()
}

// nextDeadlineLocked is the earliest deadline among leased rounds and
// minimization tasks (zero when none is leased): the moment a held lease
// request must re-run Lease so an expired lease is reclaimed on time.
// Caller holds c.mu.
func (c *Coordinator) nextDeadlineLocked() time.Time {
	var next time.Time
	earlier := func(d time.Time) {
		if next.IsZero() || d.Before(next) {
			next = d
		}
	}
	for i := range c.rounds {
		if c.rounds[i].state == roundLeased {
			earlier(c.rounds[i].deadline)
		}
	}
	for _, m := range c.mins {
		if m.state == minLeased {
			earlier(m.deadline)
		}
	}
	return next
}

// Lease hands out the next unit of fuzzing work: minimization tasks first
// (they gate completion and are cheap), then the lowest pending round whose
// generation is open. A worker that re-requests while still holding a lease
// gets the same unit back with a fresh deadline — the recovery path for a
// lease response discarded as corrupt. Lease never blocks; the HTTP handler
// holds a LeaseWait at the coordinator instead (campaign.HoldLease).
func (c *Coordinator) Lease(req FuzzLeaseRequest) (FuzzLeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseLocked(req)
}

// holdLease is Lease for the wire: a LeaseWait is held until the next state
// change, the earliest lease deadline, or ctx's end.
func (c *Coordinator) holdLease(ctx context.Context, req FuzzLeaseRequest) (FuzzLeaseResponse, error) {
	return campaign.HoldLease(ctx, func() (FuzzLeaseResponse, <-chan struct{}, time.Time, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		resp, err := c.leaseLocked(req)
		if err != nil || resp.Status != campaign.LeaseWait {
			return resp, nil, time.Time{}, err
		}
		return resp, c.wake.Chan(), c.nextDeadlineLocked(), nil
	})
}

func (c *Coordinator) leaseLocked(req FuzzLeaseRequest) (FuzzLeaseResponse, error) {
	if req.SpecHash != c.info.SuiteHash {
		c.rejected++
		return FuzzLeaseResponse{}, fmt.Errorf(
			"spec fingerprint mismatch: coordinator has %s, worker %q sent %s — fuzz specs differ, refusing to merge incomparable results",
			c.info.SuiteHash, req.Worker, req.SpecHash)
	}
	if c.draining || c.failed != nil || c.completedLocked() {
		return FuzzLeaseResponse{Status: campaign.LeaseDone}, nil
	}
	now := time.Now()
	c.reclaimLocked(now)
	c.workers[req.Worker] = now

	// Re-grant a unit this worker still holds (it would not ask otherwise).
	for _, m := range c.mins {
		if m.state == minLeased && m.worker == req.Worker {
			return c.grantMinLocked(m, req, now), nil
		}
	}
	for i := range c.rounds {
		if c.rounds[i].state == roundLeased && c.rounds[i].worker == req.Worker {
			return c.grantRoundLocked(i, req, now), nil
		}
	}

	for _, m := range c.mins {
		if m.state == minPending {
			return c.grantMinLocked(m, req, now), nil
		}
	}
	c.extendScheduleLocked(now)
	open := c.foldedGensLocked()
	for i := range c.rounds {
		if c.rounds[i].state != roundPending {
			continue
		}
		if c.genOf(i) > open {
			break // generation barrier: later rounds wait for the fold
		}
		return c.grantRoundLocked(i, req, now), nil
	}
	c.maybeCompleteLocked()
	if c.completedLocked() {
		return FuzzLeaseResponse{Status: campaign.LeaseDone}, nil
	}
	return FuzzLeaseResponse{Status: campaign.LeaseWait}, nil
}

// grantRoundLocked leases round i, shipping the corpus suffix the worker is
// missing. Caller holds c.mu.
func (c *Coordinator) grantRoundLocked(i int, req FuzzLeaseRequest, now time.Time) FuzzLeaseResponse {
	s := &c.rounds[i]
	s.state = roundLeased
	s.worker = req.Worker
	s.deadline = now.Add(c.leaseTTL)
	s.leasedAt = now
	s.lastBeat = now
	s.progress = 0
	cut := c.genCut[c.genOf(i)]
	base := req.Cursor
	if base > cut {
		base = cut
	}
	if base < 0 {
		base = 0
	}
	c.log("lease: round %d (gen %d, %d execs, corpus cut %d) -> %s (ttl %v)",
		i, c.genOf(i), c.roundExecsLocked(i), cut, req.Worker, c.leaseTTL)
	return FuzzLeaseResponse{
		Status: LeaseRound,
		Round:  i,
		Execs:  c.roundExecsLocked(i),
		Seed:   RoundSeed(c.spec.FuzzSeed, i),
		Corpus: append([]CorpusEntry(nil), c.corpus[base:cut]...),
		Base:   base,
		Cursor: cut,
		TTLNanos: int64(c.leaseTTL),
	}
}

// grantMinLocked leases minimization task m. Caller holds c.mu.
func (c *Coordinator) grantMinLocked(m *minTask, req FuzzLeaseRequest, now time.Time) FuzzLeaseResponse {
	m.state = minLeased
	m.worker = req.Worker
	m.deadline = now.Add(c.leaseTTL)
	m.leasedAt = now
	m.lastBeat = now
	c.log("lease: minimize task %d (cluster %q) -> %s (ttl %v)", m.id, m.cluster, req.Worker, c.leaseTTL)
	return FuzzLeaseResponse{
		Status:     LeaseMinimize,
		MinID:      m.id,
		MinCluster: m.cluster,
		MinText:    m.text,
		MinBudget:  c.spec.MinExecs,
		TTLNanos:   int64(c.leaseTTL),
	}
}

// Credit records one result, at most once per unit: round results feed the
// generation fold, minimization results close their tasks. Duplicate
// results are discarded (they are byte-identical by the determinism
// contract — counting both would double-credit); error payloads are failed
// dispatch attempts.
func (c *Coordinator) Credit(p *FuzzResult) (campaign.CreditResponse, error) {
	switch p.Kind {
	case ResultRound:
		return c.creditRound(p)
	case ResultMinimize:
		return c.creditMin(p)
	default:
		c.mu.Lock()
		c.rejected++
		c.mu.Unlock()
		return campaign.CreditResponse{}, fmt.Errorf("unknown result kind %q", p.Kind)
	}
}

func (c *Coordinator) creditRound(p *FuzzResult) (campaign.CreditResponse, error) {
	c.mu.Lock()
	if p.SpecHash != c.info.SuiteHash {
		c.rejected++
		c.mu.Unlock()
		return campaign.CreditResponse{}, fmt.Errorf(
			"spec fingerprint mismatch: coordinator has %s, worker %q sent %s — discarding result",
			c.info.SuiteHash, p.Worker, p.SpecHash)
	}
	if p.Round < 0 || p.Round >= len(c.rounds) {
		c.rejected++
		c.mu.Unlock()
		return campaign.CreditResponse{}, fmt.Errorf("round %d out of range [0,%d)", p.Round, len(c.rounds))
	}
	slot := &c.rounds[p.Round]
	if p.Err != "" {
		if slot.state != roundLeased || slot.worker != p.Worker {
			c.mu.Unlock()
			c.log("stale error payload for round %d from %s: discarded", p.Round, p.Worker)
			return campaign.CreditResponse{Accepted: false, Duplicate: true}, nil
		}
		c.failRoundLocked(p.Round, p.Worker, p.Err)
		dropped := slot.state == roundDropped
		done := c.completedLocked()
		c.mu.Unlock()
		if done {
			c.complete()
		}
		return campaign.CreditResponse{Accepted: false, Quarantined: dropped, Done: done}, nil
	}
	if slot.state == roundDropped {
		c.duplicates++
		c.mu.Unlock()
		c.log("result for dropped round %d from %s: discarded", p.Round, p.Worker)
		return campaign.CreditResponse{Accepted: false, Duplicate: true, Quarantined: true}, nil
	}
	if slot.state == roundDone {
		c.duplicates++
		c.mu.Unlock()
		c.log("duplicate result for round %d from %s: discarded", p.Round, p.Worker)
		return campaign.CreditResponse{Accepted: false, Duplicate: true}, nil
	}
	c.creditRoundLocked(slot, p)
	c.perWorker[p.Worker]++
	c.workers[p.Worker] = time.Now()
	c.wake.Wake()
	if err := c.ckpt.AppendRound(p); err != nil {
		// A checkpoint that silently stops recording is worse than a failed
		// soak: resume would re-run rounds it believes missing and fold a
		// corpus the recorded rounds never saw.
		if c.failed == nil {
			c.failed = err
		}
		c.mu.Unlock()
		c.complete()
		return campaign.CreditResponse{Accepted: false, Done: true}, nil
	}
	c.foldLocked()
	done := c.completedLocked()
	credited, total := c.roundsCredited, len(c.rounds)
	c.mu.Unlock()
	c.log("credit: round %d from %s (%d/%d rounds)", p.Round, p.Worker, credited, total)
	if done {
		c.complete()
	}
	return campaign.CreditResponse{Accepted: true, Done: done}, nil
}

// creditRoundLocked applies a round result to the slot and the running
// totals — shared by the wire path and checkpoint replay. Caller holds c.mu.
func (c *Coordinator) creditRoundLocked(slot *roundSlot, p *FuzzResult) {
	slot.state = roundDone
	slot.worker = p.Worker
	slot.result = p
	c.roundsCredited++
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

func (c *Coordinator) creditMin(p *FuzzResult) (campaign.CreditResponse, error) {
	c.mu.Lock()
	if p.SpecHash != c.info.SuiteHash {
		c.rejected++
		c.mu.Unlock()
		return campaign.CreditResponse{}, fmt.Errorf(
			"spec fingerprint mismatch: coordinator has %s, worker %q sent %s — discarding result",
			c.info.SuiteHash, p.Worker, p.SpecHash)
	}
	if p.MinID < 0 || p.MinID >= len(c.mins) {
		c.rejected++
		c.mu.Unlock()
		return campaign.CreditResponse{}, fmt.Errorf("minimize task %d out of range [0,%d)", p.MinID, len(c.mins))
	}
	m := c.mins[p.MinID]
	if p.MinCluster != m.cluster {
		c.rejected++
		c.mu.Unlock()
		return campaign.CreditResponse{}, fmt.Errorf(
			"minimize task %d cluster mismatch: coordinator has %q, result says %q", p.MinID, m.cluster, p.MinCluster)
	}
	if p.Err != "" {
		if m.state != minLeased || m.worker != p.Worker {
			c.mu.Unlock()
			c.log("stale error payload for minimize task %d from %s: discarded", p.MinID, p.Worker)
			return campaign.CreditResponse{Accepted: false, Duplicate: true}, nil
		}
		c.failMinLocked(m, p.Worker, p.Err)
		done := c.completedLocked()
		c.mu.Unlock()
		if done {
			c.complete()
		}
		return campaign.CreditResponse{Accepted: false, Quarantined: m.dropped, Done: done}, nil
	}
	if m.state == minDone {
		c.duplicates++
		c.mu.Unlock()
		c.log("duplicate result for minimize task %d from %s: discarded", p.MinID, p.Worker)
		return campaign.CreditResponse{Accepted: false, Duplicate: true}, nil
	}
	c.creditMinLocked(m, p)
	c.perWorker[p.Worker]++
	c.workers[p.Worker] = time.Now()
	c.wake.Wake()
	if err := c.ckpt.AppendMin(p); err != nil {
		if c.failed == nil {
			c.failed = err
		}
		c.mu.Unlock()
		c.complete()
		return campaign.CreditResponse{Accepted: false, Done: true}, nil
	}
	done := c.completedLocked()
	c.mu.Unlock()
	c.log("credit: minimize task %d from %s (verified=%v)", p.MinID, p.Worker, p.MinVerified)
	if done {
		c.complete()
	}
	return campaign.CreditResponse{Accepted: true, Done: done}, nil
}

// creditMinLocked applies a minimization result — shared by the wire path
// and checkpoint replay. Caller holds c.mu.
func (c *Coordinator) creditMinLocked(m *minTask, p *FuzzResult) {
	m.state = minDone
	m.worker = p.Worker
	m.verified = p.MinVerified
	m.minText = p.MinText
	m.minExecs = p.MinExecs
}

// Heartbeat extends a live lease; refusal tells the worker it lost the
// lease and should abandon the unit.
func (c *Coordinator) Heartbeat(req FuzzHeartbeat) (campaign.HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.SpecHash != c.info.SuiteHash {
		c.rejected++
		return campaign.HeartbeatResponse{}, fmt.Errorf(
			"spec fingerprint mismatch: coordinator has %s, worker %q sent %s — refusing heartbeat",
			c.info.SuiteHash, req.Worker, req.SpecHash)
	}
	c.workers[req.Worker] = time.Now()
	now := time.Now()
	switch req.Kind {
	case ResultRound:
		if req.ID < 0 || req.ID >= len(c.rounds) {
			return campaign.HeartbeatResponse{}, fmt.Errorf("round %d out of range [0,%d)", req.ID, len(c.rounds))
		}
		s := &c.rounds[req.ID]
		if s.state != roundLeased || s.worker != req.Worker || now.After(s.deadline) {
			return campaign.HeartbeatResponse{Extended: false}, nil
		}
		s.deadline = now.Add(c.leaseTTL)
		s.lastBeat = now
		if req.Execs > s.progress {
			s.progress = req.Execs
		}
	case ResultMinimize:
		if req.ID < 0 || req.ID >= len(c.mins) {
			return campaign.HeartbeatResponse{}, fmt.Errorf("minimize task %d out of range [0,%d)", req.ID, len(c.mins))
		}
		m := c.mins[req.ID]
		if m.state != minLeased || m.worker != req.Worker || now.After(m.deadline) {
			return campaign.HeartbeatResponse{Extended: false}, nil
		}
		m.deadline = now.Add(c.leaseTTL)
		m.lastBeat = now
	default:
		return campaign.HeartbeatResponse{}, fmt.Errorf("unknown heartbeat kind %q", req.Kind)
	}
	c.heartbeats++
	return campaign.HeartbeatResponse{Extended: true, TTLNanos: int64(c.leaseTTL)}, nil
}

// RejectResult records a result rejected at the wire boundary as a failed
// dispatch attempt when the claimed identity matches a live lease.
func (c *Coordinator) RejectResult(kind string, id int, worker, cause string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.badPayloads++
	switch kind {
	case ResultRound:
		if id < 0 || id >= len(c.rounds) {
			return
		}
		s := &c.rounds[id]
		if s.state != roundLeased || s.worker != worker {
			return
		}
		c.failRoundLocked(id, worker, cause)
	case ResultMinimize:
		if id < 0 || id >= len(c.mins) {
			return
		}
		m := c.mins[id]
		if m.state != minLeased || m.worker != worker {
			return
		}
		c.failMinLocked(m, worker, cause)
	}
}

// Degraded reports whether the soak dropped rounds: the census is missing
// their fuzzing work, and the CLI exits with the degraded code.
func (c *Coordinator) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundsDropped > 0
}

// Stats snapshots the control-plane counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	per := make(map[string]int, len(c.perWorker))
	for k, v := range c.perWorker {
		per[k] = v
	}
	mDone, mDropped := 0, 0
	for _, m := range c.mins {
		if m.state == minDone {
			mDone++
		}
		if m.dropped {
			mDropped++
		}
	}
	return Stats{
		Rounds:         len(c.rounds),
		RoundsCredited: c.roundsCredited,
		RoundsDropped:  c.roundsDropped,
		MinTasks:       len(c.mins),
		MinDone:        mDone,
		MinDropped:     mDropped,
		Resumed:        c.resumed,
		Redispatched:   c.redispatched,
		Duplicates:     c.duplicates,
		Rejected:       c.rejected,
		BadPayloads:    c.badPayloads,
		Heartbeats:     c.heartbeats,
		Generations:    c.foldedGensLocked(),
		PerWorker:      per,
	}
}

func minDone2() minState { return minDone }

// Census folds the credited rounds — in round order, which checkpoint
// replay and live crediting both preserve — into the deduplicated bug
// census. With an exec budget the value is a pure function of the spec;
// with a duration budget it is still independent of result arrival order
// over the same credited round set.
func (c *Coordinator) Census() report.FuzzCensus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.censusLocked()
}

func (c *Coordinator) censusLocked() report.FuzzCensus {
	var events []obs.Event
	rep := map[string]string{}
	for i := range c.rounds {
		if c.rounds[i].state != roundDone {
			continue
		}
		for _, v := range c.rounds[i].result.Violations {
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
	for _, m := range c.mins {
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
		RoundsCredited:    c.roundsCredited,
		RoundsDropped:     c.roundsDropped,
		CorpusSize:        len(c.corpus),
		CoverageEdges:     len(c.coverage),
		MinTasks:          len(c.mins),
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
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &obs.Snapshot{}
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
	return s
}

// Corpus returns a copy of the canonical corpus log (tests, corpus export).
func (c *Coordinator) Corpus() []CorpusEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CorpusEntry(nil), c.corpus...)
}

// Drain stops issuing new leases; in-flight units may still credit. Held
// lease requests are answered LeaseDone at once.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.wake.Wake()
	c.mu.Unlock()
}

func (c *Coordinator) leasedLocked() int {
	n := 0
	for i := range c.rounds {
		if c.rounds[i].state == roundLeased {
			n++
		}
	}
	for _, m := range c.mins {
		if m.state == minLeased {
			n++
		}
	}
	return n
}

// Wait blocks until the soak completes, fails, or ctx is cancelled.
// Cancellation is the graceful path: stop leasing, keep crediting in-flight
// units to the checkpoint until they report or expire, return the partial
// census with ctx's error.
func (c *Coordinator) Wait(ctx context.Context) (report.FuzzCensus, error) {
	select {
	case <-c.doneCh:
		return c.finish(nil)
	case <-ctx.Done():
	}
	c.Drain()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.doneCh:
			return c.finish(nil)
		case <-tick.C:
			c.mu.Lock()
			c.reclaimLocked(time.Now())
			leased := c.leasedLocked()
			c.mu.Unlock()
			if leased == 0 {
				return c.finish(ctx.Err())
			}
		}
	}
}

func (c *Coordinator) finish(err error) (report.FuzzCensus, error) {
	c.mu.Lock()
	failed := c.failed
	c.mu.Unlock()
	if failed != nil {
		return report.FuzzCensus{}, failed
	}
	return c.Census(), err
}

// Close releases the checkpoint file handle. A closed coordinator drains:
// it issues no more leases, and held lease requests are answered LeaseDone.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	ck := c.ckpt
	c.ckpt = nil
	c.draining = true
	c.wake.Wake()
	c.mu.Unlock()
	return ck.Close()
}

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
	// schedule to cover recorded indices.
	sort.Slice(st.Rounds, func(i, j int) bool { return st.Rounds[i].Round < st.Rounds[j].Round })
	for _, p := range st.Rounds {
		if p.SpecHash != c.info.SuiteHash || p.Round < 0 || !c.ensureRoundLocked(p.Round) {
			c.log("checkpoint: ignoring foreign round record (round %d, hash %s)", p.Round, p.SpecHash)
			continue
		}
		slot := &c.rounds[p.Round]
		if slot.state == roundDone {
			continue
		}
		c.creditRoundLocked(slot, p)
		c.resumed++
		c.perWorker["checkpoint"]++
	}
	for _, d := range st.Drops {
		if d.Round < 0 || !c.ensureRoundLocked(d.Round) {
			c.log("checkpoint: ignoring out-of-range drop record (round %d)", d.Round)
			continue
		}
		slot := &c.rounds[d.Round]
		if slot.state == roundDone || slot.state == roundDropped {
			continue
		}
		slot.state = roundDropped
		slot.worker = d.Worker
		slot.lastErr = d.Err
		slot.attempts = d.Attempts
		c.roundsDropped++
	}
	c.foldLocked()

	// Minimization records match by cluster key: task ids are deterministic,
	// but the key is self-describing and survives id-order evolution.
	byCluster := map[string]*minTask{}
	for _, m := range c.mins {
		byCluster[m.cluster] = m
	}
	for _, p := range st.Mins {
		m := byCluster[p.MinCluster]
		if m == nil || p.SpecHash != c.info.SuiteHash {
			c.log("checkpoint: ignoring foreign minimize record (cluster %q)", p.MinCluster)
			continue
		}
		if m.state == minDone {
			continue
		}
		c.creditMinLocked(m, p)
		c.resumed++
		c.perWorker["checkpoint"]++
	}
	for _, cluster := range st.MinDrops {
		m := byCluster[cluster]
		if m == nil || m.state == minDone {
			continue
		}
		m.state = minDone
		m.dropped = true
	}

	fresh := st.Header == nil
	header := fleetCkptLine{
		CampaignID:     c.info.CampaignID,
		SpecHash:       c.info.SuiteHash,
		FS:             c.spec.FS,
		RoundExecs:     c.spec.RoundExecs,
		GenRounds:      c.spec.GenRounds,
		BudgetExecs:    c.spec.BudgetExecs,
		BudgetNanos:    c.spec.BudgetNanos,
		StartUnixNanos: c.soakStart.UnixNano(),
	}
	ck, err := OpenCheckpoint(path, header, fresh)
	if err != nil {
		return err
	}
	c.ckpt = ck
	if c.resumed > 0 {
		c.log("checkpoint: resumed %d units from %s (%d generations folded, corpus %d)",
			c.resumed, path, c.foldedGensLocked(), len(c.corpus))
	}
	c.maybeCompleteLocked()
	return nil
}

// ensureRoundLocked grows the duration-mode schedule (whole generations at
// a time) to cover round r; in exec mode it only reports whether r is in
// range. Caller owns the coordinator exclusively (construction) or holds
// c.mu.
func (c *Coordinator) ensureRoundLocked(r int) bool {
	if r < len(c.rounds) {
		return true
	}
	if c.execMode {
		return false
	}
	need := (c.genOf(r) + 1) * c.spec.GenRounds
	c.rounds = append(c.rounds, make([]roundSlot, need-len(c.rounds))...)
	c.totalRounds = len(c.rounds)
	return true
}

// --- HTTP surface -------------------------------------------------------

// maxResultBody bounds one result POST; aligned with maxCkptLine.
const maxResultBody = maxCkptLine

// ServeHTTP serves the fuzzing wire protocol.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	campaign.WriteJSON(w, http.StatusOK, c.info)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req FuzzLeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		campaign.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad lease request: %v", err))
		return
	}
	resp, err := c.holdLease(r.Context(), req)
	if err != nil {
		campaign.WriteJSONError(w, http.StatusConflict, err.Error())
		return
	}
	campaign.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	// Results mutate the corpus and census, so the wire boundary is
	// paranoid, like the campaign's: the body must parse AND match its
	// FNV-64a self-checksum, or it is a failed attempt, never a mis-credit.
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxResultBody))
	if err != nil {
		c.RejectResult("", -1, "", "truncated result body")
		campaign.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("truncated result body: %v", err))
		return
	}
	var p FuzzResult
	if err := json.Unmarshal(data, &p); err != nil {
		c.RejectResult("", -1, "", "corrupt result body")
		campaign.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad result payload: %v", err))
		return
	}
	if want := ResultSum(&p); p.Sum == "" || p.Sum != want {
		cause := fmt.Sprintf("payload checksum mismatch: body carries %q, content hashes to %s", p.Sum, want)
		id := p.Round
		if p.Kind == ResultMinimize {
			id = p.MinID
		}
		c.RejectResult(p.Kind, id, p.Worker, cause)
		campaign.WriteJSONError(w, http.StatusBadRequest, cause)
		return
	}
	resp, err := c.Credit(&p)
	if err != nil {
		campaign.WriteJSONError(w, http.StatusConflict, err.Error())
		return
	}
	campaign.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req FuzzHeartbeat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		campaign.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad heartbeat request: %v", err))
		return
	}
	resp, err := c.Heartbeat(req)
	if err != nil {
		campaign.WriteJSONError(w, http.StatusConflict, err.Error())
		return
	}
	campaign.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s := c.MergedObs()
	w.Header().Set("Content-Type", obs.MetricsContentType)
	s.WriteMetrics(w)
}
