package main

import (
	"context"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// The traced run measures the program through wrapped seams; these tests
// check that the wrapped program computes the same census as the unwrapped
// one, so the traced run measures the program the untraced run measures.

func suiteFingerprint(t *testing.T, cfg core.Config, suite []workload.Workload) (string, *harness.Census) {
	t.Helper()
	census, viol, err := harness.Run(context.Background(), cfg, suite, harness.WithWorkers(engineWorkers))
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(census, viol), census
}

func mustSuite(t *testing.T, name string) []workload.Workload {
	t.Helper()
	s, err := ace.SuiteByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWrappedSeamsMatchUnwrapped runs seq1 (and seq1dax, with its xattr
// ops, on the DAX systems) with all injected bugs on every system, once
// plain and once with the traced configuration: the NewFS and Checker
// wrappers, a metrics collector and a journal.
func TestWrappedSeamsMatchUnwrapped(t *testing.T) {
	for _, sys := range harness.Systems() {
		suites := []string{"seq1"}
		if sys.Weak {
			suites = append(suites, "seq1dax")
		}
		for _, name := range suites {
			suite := mustSuite(t, name)
			cfg := harness.Options{FS: sys.Name, Bugs: bugs.AllSet()}.ConfigFor(sys)
			want, _ := suiteFingerprint(t, cfg, suite)

			ph := &phase{tr: newTracer()}
			traced := (&aceSeq2{}).instrument(cfg, ph, obs.NewJournal(&runSink{}), 0)
			got, census := suiteFingerprint(t, traced, suite)
			if got != want {
				t.Errorf("%s %s: wrapped census differs from unwrapped\nwrapped:\n%.600s\nunwrapped:\n%.600s", sys.Name, name, got, want)
			}
			if census.StatesChecked > 0 && ph.lay.chk.states.Load() == 0 {
				t.Errorf("%s %s: the Checker wrapper saw none of %d crash states", sys.Name, name, census.StatesChecked)
			}
		}
	}
}

// TestHidingXattrFSChangesCensus is the control for the test above: a
// wrapper that hides vfs.XattrFS changes what the engine computes on a DAX
// system, so the fingerprint comparison would catch it.
func TestHidingXattrFSChangesCensus(t *testing.T) {
	sys, err := harness.SystemByName("xfs-dax")
	if err != nil {
		t.Fatal(err)
	}
	suite := mustSuite(t, "seq1dax")
	cfg := harness.Options{FS: sys.Name, Bugs: bugs.AllSet()}.ConfigFor(sys)
	want, _ := suiteFingerprint(t, cfg, suite)
	inner := cfg.NewFS
	cfg.NewFS = func(pm *persist.PM) vfs.FS { return &timedFS{FS: inner(pm)} }
	if got, _ := suiteFingerprint(t, cfg, suite); got == want {
		t.Fatal("hiding XattrFS left the census unchanged; the fidelity test cannot see a lossy wrapper")
	}
}

// TestWireTapMatchesSerial runs kv-smoke as a loopback campaign through the
// wire tap, traced (worker journals, Spec.Stats) and untraced, and compares
// each system's census with a serial in-process run.
func TestWireTapMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, sys := range harness.Systems() {
		spec := kvSpec(sys.Name, false)
		spec.Suite = "kv-smoke"
		opts, err := spec.Options()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := suiteFingerprint(t, opts.ConfigFor(sys), mustSuite(t, "kv-smoke"))
		for _, traced := range []bool{false, true} {
			spec.Stats = traced
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			r, err := runCampaign(ctx, spec, nil, tr)
			if err != nil {
				t.Fatalf("%s: %v", sys.Name, err)
			}
			if r.prints != want {
				t.Errorf("%s (traced=%v): campaign census through the tap differs from serial\ncampaign:\n%.600s\nserial:\n%.600s",
					sys.Name, traced, r.prints, want)
			}
			if r.tap.credited == 0 || r.tap.credited != r.tap.granted {
				t.Errorf("%s (traced=%v): tap credited %d of %d granted units", sys.Name, traced, r.tap.credited, r.tap.granted)
			}
		}
	}
}
