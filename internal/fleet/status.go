package fleet

import (
	"time"

	"chipmunk/internal/lease"
)

// This file is the fleet coordinator's read-only observability surface: the
// live JSON soak view (GET /campaign/status) and the auto-refreshing HTML
// dashboard rendered from the same snapshot (GET /campaign/dash); the
// coordinator also serves the merged collectors plus the fleet series in
// Prometheus text (GET /debug/metrics).
// None of these mutate soak state: watching a soak is always safe.

// FuzzStatus is one point-in-time view of a fleet-fuzzing soak. All
// durations are seconds (JSON-friendly; no nanosecond fields to misread).
type FuzzStatus struct {
	CampaignID string `json:"campaign_id"`
	FS         string `json:"fs"`
	SpecHash   string `json:"spec_hash"`
	RoundExecs int    `json:"round_execs"`
	GenRounds  int    `json:"gen_rounds"`
	// Budget: exactly one of BudgetExecs / BudgetSec is nonzero.
	BudgetExecs int     `json:"budget_execs,omitempty"`
	BudgetSec   float64 `json:"budget_sec,omitempty"`

	// Round state machine counts; Rounds = Pending+Leased+Done+Dropped.
	// In duration mode Rounds grows a generation at a time until the
	// wall-clock budget closes.
	Rounds   int  `json:"rounds"`
	Pending  int  `json:"pending"`
	Leased   int  `json:"leased"`
	Done     int  `json:"done"`
	Dropped  int  `json:"dropped"`
	Resumed  int  `json:"resumed,omitempty"`
	Draining bool `json:"draining,omitempty"`

	// Generations folded so far; rounds of generation g only lease once
	// generation g-1 has folded (the barrier the corpus determinism rests on).
	Generations int `json:"generations"`

	// RoundMap is one character per round in round order: '.' pending,
	// 'r' leased (running), '#' done, 'X' dropped, with a '|' between
	// generations.
	RoundMap string `json:"round_map"`

	// Corpus/coverage as of the last fold; Execs and ExecsPerSec are the
	// tentpole throughput series (credited rounds only).
	CorpusSize    int     `json:"corpus_size"`
	CoverageEdges int     `json:"coverage_edges"`
	Execs         int     `json:"execs"`
	ExecsPerSec   float64 `json:"execs_per_sec"`
	StatesChecked int     `json:"states_checked"`
	ElapsedSec    float64 `json:"elapsed_sec"`

	// Bug census as of the credited rounds.
	DistinctBugs int `json:"distinct_bugs"`
	MinPending   int `json:"min_pending"`
	MinLeased    int `json:"min_leased"`
	MinDone      int `json:"min_done"`
	MinVerified  int `json:"min_verified"`

	Workers  []lease.WorkerStatus `json:"workers,omitempty"`
	InFlight []FuzzLeaseStatus    `json:"in_flight,omitempty"`
}

// FuzzLeaseStatus is one in-flight lease (round or minimization task).
type FuzzLeaseStatus struct {
	Kind string `json:"kind"` // "round" or "minimize"
	ID   int    `json:"id"`
	lease.Row
	// Progress is the count the worker piggybacked on its last heartbeat.
	Progress int `json:"progress,omitempty"`
}

// Status snapshots the soak for the dashboard. Expired leases are shown as
// the lease state machine last left them — reclaim happens on the next
// lease request, and a read-only status probe must not advance the machine.
func (c *Coordinator) Status() FuzzStatus {
	now := time.Now()
	st := FuzzStatus{
		CampaignID:  c.info.CampaignID,
		FS:          c.spec.FS,
		SpecHash:    c.info.SuiteHash,
		RoundExecs:  c.spec.RoundExecs,
		GenRounds:   c.spec.GenRounds,
		BudgetExecs: c.spec.BudgetExecs,
		ElapsedSec:  now.Sub(c.started).Seconds(),
	}
	if c.spec.BudgetNanos > 0 {
		st.BudgetSec = time.Duration(c.spec.BudgetNanos).Seconds()
	}
	inFlight := func(kind string, i int, s *lease.Slot) {
		st.InFlight = append(st.InFlight, FuzzLeaseStatus{Kind: kind, ID: i, Row: s.Row(now), Progress: s.Progress})
	}
	c.eng.Locked(func() {
		st.Rounds = len(c.rounds.Slots)
		st.Resumed = c.eng.CountersLocked().Resumed
		st.Draining = c.eng.DrainingLocked()
		st.Generations = c.foldedGensLocked()
		st.CorpusSize = len(c.corpus)
		st.CoverageEdges = len(c.coverage)
		st.Execs = c.execs
		st.StatesChecked = c.statesChecked
		roundMap := make([]byte, 0, len(c.rounds.Slots)+len(c.rounds.Slots)/c.spec.GenRounds)
		for i := range c.rounds.Slots {
			if i > 0 && i%c.spec.GenRounds == 0 {
				roundMap = append(roundMap, '|')
			}
			s := &c.rounds.Slots[i]
			switch s.State {
			case lease.Pending:
				st.Pending++
				roundMap = append(roundMap, '.')
			case lease.Leased:
				st.Leased++
				roundMap = append(roundMap, 'r')
				inFlight(ResultRound, i, s)
			case lease.Credited:
				st.Done++
				roundMap = append(roundMap, '#')
			case lease.GivenUp:
				st.Dropped++
				roundMap = append(roundMap, 'X')
			}
		}
		st.RoundMap = string(roundMap)
		for i := range c.mins.Slots {
			s := &c.mins.Slots[i]
			switch s.State {
			case lease.Pending:
				st.MinPending++
			case lease.Leased:
				st.MinLeased++
				inFlight(ResultMinimize, i, s)
			default:
				st.MinDone++
				if c.tasks[i].verified {
					st.MinVerified++
				}
			}
		}
		st.DistinctBugs = len(c.clusterSeen)
		st.Workers = c.eng.WorkersLocked(now)
	})
	if st.ElapsedSec > 0 {
		st.ExecsPerSec = float64(st.Execs) / st.ElapsedSec
	}
	return st
}

// fuzzDashTmpl is the soak's page inside the shared dashboard shell.
var fuzzDashTmpl = lease.Page(`{{define "title"}}fuzz soak {{.CampaignID}}{{end}}
{{define "summary"}}<h1>fuzz soak {{.CampaignID}} &mdash; {{.FS}} (spec {{.SpecHash}}, {{.RoundExecs}} execs/round, {{.GenRounds}} rounds/gen)</h1>
<p>
<span class="done">{{.Done}}/{{.Rounds}} rounds done</span> &middot;
<span class="run">{{.Leased}} running</span> &middot;
{{.Pending}} pending &middot; gen {{.Generations}}{{if .Dropped}} &middot; <span class="bad">{{.Dropped}} DROPPED</span>{{end}}{{if .Draining}} &middot; draining{{end}}
</p>
<p>{{.Execs}} execs &middot; {{printf "%.1f" .ExecsPerSec}} execs/sec &middot; {{.StatesChecked}} states checked &middot;
corpus {{.CorpusSize}} ({{.CoverageEdges}} edges) &middot;
<span class="bug">{{.DistinctBugs}} distinct bugs</span> &middot;
elapsed {{printf "%.0f" .ElapsedSec}}s{{if .BudgetExecs}} &middot; budget {{.BudgetExecs}} execs{{end}}{{if gt .BudgetSec 0.0}} &middot; budget {{printf "%.0f" .BudgetSec}}s{{end}}</p>
<p>minimization: {{.MinDone}} done ({{.MinVerified}} re-verified) &middot; {{.MinLeased}} running &middot; {{.MinPending}} pending</p>
<h2>round map ('.' pending, 'r' running, '#' done, 'X' dropped, '|' generation barrier)</h2>
<pre class="map">{{.RoundMap}}</pre>{{end}}
{{define "cols"}}<th>kind</th><th>id</th><th>progress</th>{{end}}
{{define "row"}}<td>{{.Kind}}</td><td>{{.ID}}</td><td>{{.Progress}}</td>{{end}}`)
