package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxStateSpans bounds the per-crash-state spans (state, mount, check,
// usability) a traced phase keeps in memory. Whether an engine run's states
// are traced is decided when the run starts: runs starting past the cap keep
// only their run span, named engine.run.nostates. Coarse spans (suite runs,
// units, engine runs, handler calls) are always kept. The per-layer metrics
// never read state spans, so the cap changes only the written trace.
const maxStateSpans = 200_000

// span is one timed interval recorded at a seam. Spans of one engine run
// share Run; self time is a span's duration minus the union of its
// children's intervals.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Run    uint64 `json:"run,omitempty"`
	Name   string `json:"name"`
	Worker string `json:"worker,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced phase in memory until they are
// written out at the end of the run.
type tracer struct {
	epoch      time.Time
	next       atomic.Uint64
	mu         sync.Mutex
	spans      []span
	stateSpans int
	// detailed records, per engine run, whether its states are traced.
	detailed map[uint64]bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), detailed: map[uint64]bool{}}
}

// newID returns a fresh span ID for a span whose children start before it
// ends (the parent is recorded last, when its interval is known). Fresh IDs
// are small; spanID's hashed IDs have the top bit set, so the two never
// collide.
func (t *tracer) newID() uint64 { return t.next.Add(1) }

// record adds a completed span; a zero ID gets a fresh one. It returns the
// span's ID.
func (t *tracer) record(s span, start, end time.Time) uint64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	s.Start, s.End = start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	if t.detailed[s.Run] && s.ID != s.Run {
		t.stateSpans++
	}
	return s.ID
}

// traceStates decides, when an engine run starts, whether its states are
// traced: yes while fewer than maxStateSpans state spans are held.
func (t *tracer) traceStates(run uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.detailed[run]
	if !ok {
		d = t.stateSpans < maxStateSpans
		t.detailed[run] = d
	}
	return d
}

// runSpanName names an engine run's span by whether its states were traced.
func (t *tracer) runSpanName(run uint64) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d, ok := t.detailed[run]; ok && !d {
		return "engine.run.nostates"
	}
	return "engine.run"
}

// spanID derives a deterministic span or run ID from coordinates both sides
// of a seam know (e.g. system, workload name and iteration), so a child
// recorded before its parent can name it.
func spanID(parts ...any) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprint(h, p, "\x00")
	}
	return h.Sum64() | 1<<63
}

// link attaches each orphan span of the named kind to the span of one of
// the parent kinds on the same worker whose interval contains the orphan's
// end. Loopback workers journal their engine runs with a delay, so runs are
// joined to their lease units after the phase instead of at record time.
func (t *tracer) link(orphan string, parentNames ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := map[string][]span{}
	for _, s := range t.spans {
		for _, name := range parentNames {
			if s.Name == name {
				parents[s.Worker] = append(parents[s.Worker], s)
			}
		}
	}
	for _, ps := range parents {
		sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != orphan || s.Parent != 0 {
			continue
		}
		ps := parents[s.Worker]
		k := sort.Search(len(ps), func(k int) bool { return ps[k].Start > s.End }) - 1
		if k >= 0 && ps[k].End >= s.End {
			s.Parent = ps[k].ID
		}
	}
}

// durationUnder sums the durations of the named spans whose parent is a
// span named parentName.
func (t *tracer) durationUnder(name, parentName string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[uint64]string, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s.Name
	}
	var sum int64
	for _, s := range t.spans {
		if s.Name == name && byID[s.Parent] == parentName {
			sum += s.End - s.Start
		}
	}
	return sum
}

// selfStat is the aggregate of one span name: count, total duration, and
// self time (duration not covered by child spans).
type selfStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates total and self time per span name.
func (t *tracer) selfTimes() []selfStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfStat{}
	for _, s := range t.spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			agg[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - covered(s, children[s.ID]))
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			sum += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		sum += curE - curS
	}
	return sum
}

// writeSpans writes every kept span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSummary prints the self-time table of a traced phase.
func (t *tracer) writeSummary(w io.Writer, wall time.Duration) {
	fmt.Fprintf(w, "traced phase: %v wall, %d spans (%d per-state)\n", wall.Round(time.Millisecond), len(t.spans), t.stateSpans)
	fmt.Fprintf(w, "%-18s %9s %12s %12s %12s\n", "span", "count", "total", "self", "self/count")
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "%-18s %9d %12v %12v %12v\n", st.Name, st.Count,
			st.Total.Round(time.Microsecond), st.Self.Round(time.Microsecond),
			(st.Self / time.Duration(max(st.Count, 1))).Round(time.Nanosecond))
	}
	fmt.Fprintln(w, strings.Repeat("-", 67))
}
