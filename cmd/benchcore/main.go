// Command benchcore measures the engine's crash-image materialization cost
// and writes the numbers the perf acceptance gates read, as JSON:
//
//	benchcore -o BENCH_core.json            # full matrix, best-of-3
//	benchcore -rounds 1                     # CI smoke, print to stdout
//	benchcore -check BENCH_core.json        # perf gate against a baseline
//
// The -check mode re-runs the matrix and compares the delta-path rows
// against the committed baseline. Raw ns/state is machine-dependent, so the
// gate first computes a calibration factor — the median ratio of current to
// baseline ns/state over the full-copy rows, whose cost is dominated by
// memcpy and tracks machine speed — and fails if the geometric mean of the
// delta rows' ns/state exceeds the calibrated baseline geomean by more than
// -tolerance. Individual cells run for only a few milliseconds and jitter
// past any sane tolerance, so the gate judges the aggregate; per-cell
// ratios are printed for diagnosis. The per-state byte counters are
// deterministic, so those ARE compared per cell, without calibration.
//
// The matrix crosses {delta, full-copy} x {workers 1, 4} x {device 1x, 2x}
// on the exhaustive data-heavy workload BenchmarkEngineParallel uses. Each
// row carries ns/state, states/sec, and the per-state byte traffic taken
// from the obs materialization counters — under the delta path the bytes
// must track the workload's diff, not the device size.
//
// The trajectory ledger keeps the perf history across PRs:
//
//	benchcore -record                       # append a dated row to BENCH_trajectory.jsonl
//	benchcore -check BENCH_core.json        # also reports vs the trajectory seed and best rows
//
// Each -record row carries the date, git SHA, and the geometric means of the
// delta rows' ns/state and states/sec. -cpuprofile/-memprofile write pprof
// profiles of the measurement matrix (see `make profile`).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// Row is one cell of the measurement matrix.
type Row struct {
	Mode             string  `json:"mode"` // "delta" or "full-copy"
	Workers          int     `json:"workers"`
	DevSize          int64   `json:"dev_size"`
	States           int64   `json:"states"`
	NsPerState       float64 `json:"ns_per_state"`
	StatesPerSec     float64 `json:"states_per_sec"`
	MatBytesPerState float64 `json:"mat_bytes_per_state"`
	PrimeBytes       int64   `json:"prime_bytes"`
	RolledBackBytes  int64   `json:"rolled_back_bytes"`
	ImagePrimes      int64   `json:"image_primes"`
}

// Report is the BENCH_core.json document.
type Report struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Rounds int    `json:"rounds"`
	FS     string `json:"fs"`
	Rows   []Row  `json:"rows"`
}

// TrajRow is one line of the BENCH_trajectory.jsonl ledger: a dated,
// SHA-attributed summary of the delta-path rows, appended by -record so the
// perf history survives baseline refreshes.
type TrajRow struct {
	Date            string  `json:"date"`
	SHA             string  `json:"sha"`
	Go              string  `json:"go"`
	FS              string  `json:"fs"`
	GeoNsPerState   float64 `json:"geomean_ns_per_state"`
	GeoStatesPerSec float64 `json:"geomean_states_per_sec"`
}

func main() {
	var (
		out        = flag.String("o", "", "write the JSON report here (default stdout)")
		rounds     = flag.Int("rounds", 3, "runs per cell; the fastest is reported")
		fsName     = flag.String("fs", "nova", "target file system")
		check      = flag.String("check", "", "baseline BENCH_core.json to gate against; exit 1 on regression")
		tolerance  = flag.Float64("tolerance", 0.15, "allowed fractional regression in -check mode")
		record     = flag.Bool("record", false, "append a dated delta-path summary row to the trajectory ledger")
		trajectory = flag.String("trajectory", "BENCH_trajectory.jsonl", "trajectory ledger path (-record appends, -check reports against it)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the measurement matrix here")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (post-matrix) here")
	)
	flag.Parse()

	sys, err := harness.SystemByName(*fsName)
	fatalIf(err)
	w := workload.Workload{Name: "benchcore", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Off: 0, Size: 16384, Seed: 1},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
	}}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fatalIf(err)
		fatalIf(pprof.StartCPUProfile(f))
	}
	rep := Report{Schema: "bench_core/v1", Go: runtime.Version(), Rounds: *rounds, FS: sys.Name}
	for _, fullCopy := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			for _, devSize := range []int64{core.DefaultDevSize, 2 * core.DefaultDevSize} {
				rep.Rows = append(rep.Rows, measure(sys, w, fullCopy, workers, devSize, *rounds))
			}
		}
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("wrote CPU profile %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		fatalIf(err)
		runtime.GC()
		fatalIf(pprof.WriteHeapProfile(f))
		fatalIf(f.Close())
		fmt.Printf("wrote heap profile %s\n", *memprofile)
	}

	if *check != "" {
		gateErr := gate(*check, rep, *tolerance)
		reportTrajectory(*trajectory, rep)
		fatalIf(gateErr)
		fmt.Printf("perf gate passed against %s (tolerance %.0f%%)\n", *check, *tolerance*100)
		return
	}

	if *record {
		row := TrajRow{
			Date: time.Now().UTC().Format("2006-01-02"),
			SHA:  gitSHA(),
			Go:   rep.Go,
			FS:   rep.FS,
		}
		row.GeoNsPerState, row.GeoStatesPerSec = deltaGeomeans(rep)
		fatalIf(appendTrajectory(*trajectory, row))
		fmt.Printf("recorded %s @ %s: geomean %.0f ns/state, %.0f states/sec -> %s\n",
			row.Date, row.SHA, row.GeoNsPerState, row.GeoStatesPerSec, *trajectory)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	fatalIf(err)
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	fatalIf(os.WriteFile(*out, enc, 0o644))
	fmt.Printf("wrote %s (%d rows)\n", *out, len(rep.Rows))
}

// deltaGeomeans summarizes the delta-path rows: geometric mean ns/state and
// states/sec.
func deltaGeomeans(rep Report) (ns, sps float64) {
	var logNs, logSps float64
	var n int
	for _, r := range rep.Rows {
		if r.Mode != "delta" || r.NsPerState <= 0 || r.StatesPerSec <= 0 {
			continue
		}
		logNs += math.Log(r.NsPerState)
		logSps += math.Log(r.StatesPerSec)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(logNs / float64(n)), math.Exp(logSps / float64(n))
}

// gitSHA best-effort resolves the working tree's short commit SHA, marked
// dirty when the tree differs from that commit (see formatSHA).
func gitSHA() string {
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return formatSHA(string(head), string(status), err)
}

// formatSHA renders a ledger row's attribution from `git rev-parse --short
// HEAD` and `git status --porcelain` output. Any uncommitted change — or a
// status that could not be read — appends "-dirty": the row measured code
// that is not the commit, and must not silently carry its SHA.
func formatSHA(head, porcelain string, statusErr error) string {
	sha := strings.TrimSpace(head)
	if statusErr != nil || strings.TrimSpace(porcelain) != "" {
		sha += "-dirty"
	}
	return sha
}

// readTrajectory parses the JSONL ledger (missing file = empty history).
func readTrajectory(path string) ([]TrajRow, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var rows []TrajRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r TrajRow
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

// appendTrajectory appends one JSONL row to the ledger.
func appendTrajectory(path string, row TrajRow) error {
	enc, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(enc, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportTrajectory prints where the current run stands against the ledger's
// seed (first) and best-known rows. Informational only: raw ns/state is
// machine-dependent, so the hard gate stays with the calibrated baseline.
func reportTrajectory(path string, rep Report) {
	rows, err := readTrajectory(path)
	if err != nil || len(rows) == 0 {
		return
	}
	curNs, curSps := deltaGeomeans(rep)
	if curNs <= 0 {
		return
	}
	seed := rows[0]
	best := rows[0]
	for _, r := range rows[1:] {
		if r.GeoNsPerState > 0 && r.GeoNsPerState < best.GeoNsPerState {
			best = r
		}
	}
	fmt.Printf("trajectory (%s, %d rows, uncalibrated):\n", path, len(rows))
	fmt.Printf("  current    %8.0f ns/state %8.0f states/sec\n", curNs, curSps)
	if seed.GeoNsPerState > 0 {
		fmt.Printf("  seed  %s %8.0f ns/state (current x%.2f)\n", seed.SHA, seed.GeoNsPerState, curNs/seed.GeoNsPerState)
	}
	if best.GeoNsPerState > 0 {
		fmt.Printf("  best  %s %8.0f ns/state (current x%.2f)\n", best.SHA, best.GeoNsPerState, curNs/best.GeoNsPerState)
	}
}

// rowKey identifies a matrix cell across reports.
func rowKey(r Row) string { return fmt.Sprintf("%s/w%d/dev%d", r.Mode, r.Workers, r.DevSize) }

// gate compares the freshly measured report against a committed baseline
// and returns an error naming every regressed cell. Machine-speed skew is
// absorbed by calibrating with the median current/baseline ns ratio over
// the full-copy rows before judging the delta rows.
func gate(path string, cur Report, tol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if base.Schema != cur.Schema {
		return fmt.Errorf("baseline schema %q, want %q", base.Schema, cur.Schema)
	}
	byKey := make(map[string]Row, len(base.Rows))
	for _, r := range base.Rows {
		byKey[rowKey(r)] = r
	}

	var ratios []float64
	for _, r := range cur.Rows {
		b, ok := byKey[rowKey(r)]
		if r.Mode != "full-copy" || !ok || b.NsPerState <= 0 {
			continue
		}
		ratios = append(ratios, r.NsPerState/b.NsPerState)
	}
	if len(ratios) == 0 {
		return fmt.Errorf("baseline %s has no full-copy rows to calibrate against", path)
	}
	sort.Float64s(ratios)
	factor := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		factor = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	fmt.Printf("machine calibration factor %.3f (median of %d full-copy ratios)\n", factor, len(ratios))

	var failures []string
	var logSum float64
	var deltaRows int
	for _, r := range cur.Rows {
		b, ok := byKey[rowKey(r)]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from baseline", rowKey(r)))
			continue
		}
		if r.Mode == "delta" && b.NsPerState > 0 {
			ratio := r.NsPerState / (b.NsPerState * factor)
			logSum += math.Log(ratio)
			deltaRows++
			fmt.Printf("  %-24s %8.0f ns/state, calibrated baseline %8.0f (x%.2f)\n",
				rowKey(r), r.NsPerState, b.NsPerState*factor, ratio)
		}
		// The materialization byte counters are deterministic functions of
		// the workload, so compare them raw: growth here means the delta
		// path started copying more than the diff.
		if b.MatBytesPerState > 0 && r.MatBytesPerState > b.MatBytesPerState*(1+tol) {
			failures = append(failures, fmt.Sprintf("%s: %.0f materialized bytes/state > baseline %.0f (deterministic counter)",
				rowKey(r), r.MatBytesPerState, b.MatBytesPerState))
		}
	}
	if deltaRows == 0 {
		return fmt.Errorf("baseline %s has no delta rows to gate on", path)
	}
	geomean := math.Exp(logSum / float64(deltaRows))
	fmt.Printf("delta-path geomean x%.3f of calibrated baseline (tolerance x%.2f)\n", geomean, 1+tol)
	if geomean > 1+tol {
		failures = append(failures, fmt.Sprintf(
			"delta-path ns/state geomean is x%.3f of the calibrated baseline, over the x%.2f tolerance", geomean, 1+tol))
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func measure(sys harness.System, w workload.Workload, fullCopy bool, workers int, devSize int64, rounds int) Row {
	best := Row{Mode: "delta", Workers: workers, DevSize: devSize}
	if fullCopy {
		best.Mode = "full-copy"
	}
	for r := 0; r < rounds; r++ {
		col := obs.New()
		cfg := harness.Options{
			Bugs: bugs.None(), Cap: 0, Workers: workers,
			DisableDeltaMaterialize: fullCopy, Obs: col,
		}.ConfigFor(sys)
		cfg.DevSize = devSize
		start := time.Now()
		res, err := core.RunContext(context.Background(), cfg, w)
		elapsed := time.Since(start)
		fatalIf(err)
		if res.Buggy() {
			fatalIf(fmt.Errorf("benchcore workload violated on a fixed system"))
		}
		snap := col.Snapshot()
		states := snap.Count(obs.CtrStatesChecked)
		if states == 0 {
			fatalIf(fmt.Errorf("no crash states checked"))
		}
		nsPerState := float64(elapsed.Nanoseconds()) / float64(states)
		if best.States != 0 && nsPerState >= best.NsPerState {
			continue
		}
		best.States = states
		best.NsPerState = nsPerState
		best.StatesPerSec = float64(states) / elapsed.Seconds()
		best.MatBytesPerState = float64(snap.Count(obs.CtrBytesMaterialized)) / float64(states)
		best.PrimeBytes = snap.Count(obs.CtrBytesPrimed)
		best.RolledBackBytes = snap.Count(obs.CtrBytesRolledBack)
		best.ImagePrimes = snap.Count(obs.CtrImagePrimes)
	}
	return best
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}
}
