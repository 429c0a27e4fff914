package lease

import (
	"html/template"
	"time"
)

// WorkerStatus is one worker's liveness row in a status snapshot, sorted
// by ID. All durations are seconds (JSON-friendly).
type WorkerStatus struct {
	ID string `json:"id"`
	// LastSeenSec is the age of the worker's most recent lease, heartbeat,
	// or result — the dashboard's liveness column.
	LastSeenSec float64 `json:"last_seen_sec"`
	ShardsDone  int     `json:"shards_done"`
}

// Row is the job-independent part of one in-flight lease in a status
// snapshot; adapters embed it next to the unit's identity.
type Row struct {
	Worker string `json:"worker"`
	// AgeSec is time since the lease grant, BeatAgeSec since its last
	// heartbeat (also the grant when none arrived yet).
	AgeSec     float64 `json:"age_sec"`
	BeatAgeSec float64 `json:"beat_age_sec"`
	Attempts   int     `json:"attempts,omitempty"`
}

// Row renders the slot's in-flight row.
func (s *Slot) Row(now time.Time) Row {
	return Row{
		Worker: s.Worker, AgeSec: now.Sub(s.LeasedAt).Seconds(),
		BeatAgeSec: now.Sub(s.LastBeat).Seconds(), Attempts: s.Attempts,
	}
}

// Page parses a dashboard: the shared shell — one HTML page, no scripts, no
// external assets, refreshed by <meta http-equiv="refresh"> — around the
// job's templates. body must define "title", "summary" (headline and unit
// map), "cols" (in-flight header cells) and "row" (one in-flight row's
// cells); the shell renders .Workers and ranges over .InFlight.
// html/template escapes every interpolation, so worker IDs are inert.
func Page(body string) *template.Template {
	return template.Must(template.Must(shell.Clone()).Parse(body))
}

var shell = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>chipmunk {{template "title" .}}</title>
<style>
body { font-family: monospace; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.2em; }
table { border-collapse: collapse; } td, th { padding: 2px 10px; text-align: left; border-bottom: 1px solid #ddd; }
.map { word-break: break-all; max-width: 64em; line-height: 1.1; }
.done { color: #2a7; } .run { color: #07c; } .bad { color: #c22; font-weight: bold; } .bug { color: #c22; }
</style></head><body>
{{template "summary" .}}
{{if .Workers}}<h2>workers</h2>
<table><tr><th>worker</th><th>last seen</th><th>units done</th></tr>
{{range .Workers}}<tr><td>{{.ID}}</td><td>{{printf "%.1f" .LastSeenSec}}s ago</td><td>{{.ShardsDone}}</td></tr>
{{end}}</table>{{end}}
{{if .InFlight}}<h2>in flight</h2>
<table><tr>{{template "cols"}}<th>worker</th><th>age</th><th>last beat</th><th>attempts</th></tr>
{{range .InFlight}}<tr>{{template "row" .}}<td>{{.Worker}}</td><td>{{printf "%.1f" .AgeSec}}s</td><td>{{printf "%.1f" .BeatAgeSec}}s ago</td><td>{{.Attempts}}</td></tr>
{{end}}</table>{{end}}
</body></html>
`))
