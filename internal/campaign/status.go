package campaign

import (
	"time"

	"chipmunk/internal/lease"
)

// This file is the coordinator's read-only observability surface: the live
// JSON shard map (GET /campaign/status) and the auto-refreshing HTML
// dashboard rendered from the same snapshot (GET /campaign/dash); the
// coordinator also serves the merged census collector in Prometheus text
// (GET /debug/metrics). None of these mutate campaign state: watching a
// campaign is always safe.

// CampaignStatus is one point-in-time view of a campaign: the shard state
// counts, worker liveness, throughput, and ETA the dashboard renders. All
// durations are seconds (JSON-friendly; no nanosecond fields to misread).
type CampaignStatus struct {
	CampaignID string `json:"campaign_id"`
	FS         string `json:"fs"`
	Suite      string `json:"suite"`
	SuiteHash  string `json:"suite_hash"`
	Workloads  int    `json:"workloads"`
	ShardSize  int    `json:"shard_size"`

	// Shard state machine counts; Shards = Pending+Leased+Done+Quarantined.
	Shards      int  `json:"shards"`
	Pending     int  `json:"pending"`
	Leased      int  `json:"leased"`
	Done        int  `json:"done"`
	Quarantined int  `json:"quarantined"`
	Resumed     int  `json:"resumed,omitempty"`
	Draining    bool `json:"draining,omitempty"`

	// ShardMap is one character per shard in shard order: '.' pending,
	// 'r' leased (running), '#' done, 'X' quarantined.
	ShardMap string `json:"shard_map"`

	// StatesChecked sums credited shard payloads plus the live progress
	// in-flight leases piggybacked on their last heartbeat; StatesPerSec
	// divides the credited portion by campaign wall-clock, and ETASec
	// extrapolates the remaining shards from the shards credited this run
	// (checkpoint resumes excluded — they were free). ETASec is 0 until the
	// first live credit lands.
	ElapsedSec    float64 `json:"elapsed_sec"`
	StatesChecked int64   `json:"states_checked"`
	StatesPerSec  float64 `json:"states_per_sec"`
	ETASec        float64 `json:"eta_sec"`
	Violations    int     `json:"violations"`

	Workers  []lease.WorkerStatus `json:"workers,omitempty"`
	InFlight []ShardStatus        `json:"in_flight,omitempty"`
}

// ShardStatus is one in-flight lease, in shard order.
type ShardStatus struct {
	Shard int `json:"shard"`
	Start int `json:"start"`
	End   int `json:"end"`
	lease.Row
	// StatesChecked is the live progress the worker piggybacked on its last
	// heartbeat (0 until the first one lands).
	StatesChecked int `json:"states_checked"`
}

// Status snapshots the campaign for the dashboard. Expired leases are shown
// as the lease state machine last left them — reclaim happens on the next
// lease request, and a read-only status probe must not advance the machine.
func (c *Coordinator) Status() CampaignStatus {
	now := time.Now()
	st := CampaignStatus{
		CampaignID: c.info.CampaignID,
		FS:         c.info.Spec.FS,
		Suite:      c.info.Spec.Suite,
		SuiteHash:  c.info.SuiteHash,
		Workloads:  c.info.Workloads,
		ShardSize:  c.info.ShardSize,
		ElapsedSec: now.Sub(c.started).Seconds(),
	}
	var credited int64
	c.eng.Locked(func() {
		st.Shards = len(c.job.Slots)
		st.Resumed = c.eng.CountersLocked().Resumed
		st.Draining = c.eng.DrainingLocked()
		shardMap := make([]byte, len(c.job.Slots))
		for i := range c.job.Slots {
			s := &c.job.Slots[i]
			switch s.State {
			case lease.Pending:
				st.Pending++
				shardMap[i] = '.'
			case lease.Leased:
				st.Leased++
				shardMap[i] = 'r'
				credited += int64(s.Progress)
				start, end := c.shardRange(i)
				st.InFlight = append(st.InFlight, ShardStatus{
					Shard: i, Start: start, End: end, Row: s.Row(now), StatesChecked: s.Progress,
				})
			case lease.Credited:
				st.Done++
				shardMap[i] = '#'
				credited += int64(c.job.payloads[i].StatesChecked)
				st.Violations += c.job.payloads[i].ViolationTotal
			case lease.GivenUp:
				st.Quarantined++
				shardMap[i] = 'X'
			}
		}
		st.ShardMap = string(shardMap)
		st.Workers = c.eng.WorkersLocked(now)
	})
	st.StatesChecked = credited
	if st.ElapsedSec > 0 {
		st.StatesPerSec = float64(credited) / st.ElapsedSec
	}
	if live := st.Done - st.Resumed; live > 0 {
		remaining := st.Pending + st.Leased
		st.ETASec = st.ElapsedSec * float64(remaining) / float64(live)
	}
	return st
}

// dashTmpl is the campaign's page inside the shared dashboard shell.
var dashTmpl = lease.Page(`{{define "title"}}campaign {{.CampaignID}}{{end}}
{{define "summary"}}<h1>campaign {{.CampaignID}} &mdash; {{.FS}} / {{.Suite}} ({{.Workloads}} workloads, hash {{.SuiteHash}})</h1>
<p>
<span class="done">{{.Done}}/{{.Shards}} shards done</span> &middot;
<span class="run">{{.Leased}} running</span> &middot;
{{.Pending}} pending{{if .Quarantined}} &middot; <span class="bad">{{.Quarantined}} QUARANTINED</span>{{end}}{{if .Draining}} &middot; draining{{end}}
</p>
<p>{{.StatesChecked}} states checked &middot; {{printf "%.1f" .StatesPerSec}} states/sec &middot;
elapsed {{printf "%.0f" .ElapsedSec}}s{{if gt .ETASec 0.0}} &middot; ETA {{printf "%.0f" .ETASec}}s{{end}} &middot;
{{.Violations}} violations</p>
<h2>shard map ('.' pending, 'r' running, '#' done, 'X' quarantined)</h2>
<pre class="map">{{.ShardMap}}</pre>{{end}}
{{define "cols"}}<th>shard</th><th>range</th><th>states</th>{{end}}
{{define "row"}}<td>{{.Shard}}</td><td>[{{.Start}},{{.End}})</td><td>{{.StatesChecked}}</td>{{end}}`)
