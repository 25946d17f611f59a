package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/il"
	"amdgpubench/internal/pipeline"
)

// sweepCfg is a cheap four-point sweep on one card; kernels are named
// alufetch_r0.25 .. alufetch_r1.00.
func sweepCfg() ALUFetchConfig {
	return ALUFetchConfig{
		Cards: []Card{{Arch: device.RV770, Mode: il.Pixel, Type: il.Float}},
		W:     64, H: 64,
		RatioMax: 1.0,
	}
}

func quickSuite() *Suite {
	s := NewSuite()
	s.Iterations = 1
	s.RetryBackoff = time.Microsecond
	return s
}

func TestSweepRecordsTimeoutFailure(t *testing.T) {
	s := quickSuite()
	s.DeadlineCycles = 1 << 20
	s.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.Hang, Prob: 1, Match: "alufetch_r0.50", Clause: -1},
	}}
	fig, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("sweep with one hung point should complete, got %v", err)
	}
	var failed []Run
	for _, r := range runs {
		if r.Failed() {
			failed = append(failed, r)
		}
	}
	if len(failed) != 1 {
		t.Fatalf("failed points = %d, want 1 (%+v)", len(failed), runs)
	}
	f := failed[0]
	if f.X != 0.5 {
		t.Errorf("failed point at x=%g, want 0.5", f.X)
	}
	if !strings.Contains(f.Err, "kernel timeout") || !strings.Contains(f.Err, "watchdog") {
		t.Errorf("failure record lacks taxonomy/diagnostic: %q", f.Err)
	}
	if got := s.Failures(); len(got) != 1 || got[0].Err != f.Err {
		t.Errorf("suite failure log: %+v", got)
	}
	// The failed point must not fold into the plotted curve.
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != len(runs)-1 {
		t.Errorf("series has %d points, want %d", len(fig.Series[0].Points), len(runs)-1)
	}
}

func TestSweepPanicRecoveredIntoPointError(t *testing.T) {
	s := quickSuite()
	s.testHookBeforeRun = func(p point, attempt int) {
		if p.x == 0.75 {
			panic("injected test panic")
		}
	}
	_, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("sweep with one panicking point should complete, got %v", err)
	}
	var failed []Run
	for _, r := range runs {
		if r.Failed() {
			failed = append(failed, r)
		}
	}
	if len(failed) != 1 || failed[0].X != 0.75 {
		t.Fatalf("failed = %+v, want exactly the panicked point", failed)
	}
	if !strings.Contains(failed[0].Err, "panic during launch") ||
		!strings.Contains(failed[0].Err, "injected test panic") {
		t.Errorf("panic record: %q", failed[0].Err)
	}
}

func TestSweepRetriesTransientFaults(t *testing.T) {
	s := quickSuite()
	s.Retries = 8
	s.Faults = &fault.Plan{Seed: 11, Specs: []fault.Spec{
		{Kind: fault.Transient, Prob: 0.5},
	}}
	_, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("transients should be retried away, got %v", err)
	}
	retried := false
	for _, r := range runs {
		if r.Failed() {
			t.Fatalf("point failed despite retries: %+v", r)
		}
		if r.Attempts > 1 {
			retried = true
		}
	}
	if !retried {
		t.Fatal("no point needed a retry; seed no longer exercises the retry path")
	}
}

func TestSweepTransientExhaustionIsRecorded(t *testing.T) {
	s := quickSuite()
	s.Retries = 2
	// prob=1 never clears, whatever the attempt: retries exhaust.
	s.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.Transient, Prob: 1, Match: "alufetch_r0.25"},
	}}
	_, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("exhausted transient should be a point failure, got %v", err)
	}
	for _, r := range runs {
		if r.X == 0.25 {
			if !r.Failed() || r.Attempts != 3 {
				t.Fatalf("exhausted point: %+v, want failed after 3 attempts", r)
			}
			if !strings.Contains(r.Err, "transient launch failure") {
				t.Errorf("record lacks taxonomy: %q", r.Err)
			}
		} else if r.Failed() {
			t.Fatalf("unexpected failure: %+v", r)
		}
	}
}

func TestSweepDeviceLostIsFatal(t *testing.T) {
	s := quickSuite()
	s.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.DeviceLost, Prob: 1, Match: "alufetch_r0.75"},
	}}
	_, _, err := s.ALUFetchRatio(sweepCfg())
	if !errors.Is(err, cal.ErrDeviceLost) {
		t.Fatalf("want fatal ErrDeviceLost, got %v", err)
	}
}

func TestSweepNoPlanBitIdenticalToBaseline(t *testing.T) {
	// The determinism guard: arming the resilient machinery without a
	// fault plan must not perturb a single bit of the figures.
	base := quickSuite()
	fig1, _, err := base.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	armed := quickSuite()
	armed.Retries = 3
	armed.DeadlineCycles = 1 << 36
	fig2, _, err := armed.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fig1.CSV() != fig2.CSV() {
		t.Fatalf("resilience machinery changed results:\n%s\nvs\n%s", fig1.CSV(), fig2.CSV())
	}
}

// persisted reads a suite's persist-tier counters: results written
// through to disk, served from disk, and looked up but computed.
func persisted(s *Suite) (writes, hits, misses int64) {
	snap := s.Metrics().Snapshot()
	return snap.Get("pipeline.persist.writes"), snap.Get("pipeline.persist.hits"), snap.Get("pipeline.persist.misses")
}

// wantResumed checks that a resumed suite served exactly the points an
// earlier run persisted and computed only the rest.
func wantResumed(t *testing.T, s *Suite, served, computed int64) {
	t.Helper()
	if _, hits, misses := persisted(s); hits != served || misses != computed {
		t.Fatalf("resume served %d and computed %d points, want %d served and %d computed",
			hits, misses, served, computed)
	}
}

func TestCheckpointResumeSkipsCompletedPoints(t *testing.T) {
	dir := t.TempDir()

	// First run: one point times out, the other three complete and are
	// persisted — the surviving state of an interrupted campaign. The
	// watchdog budget is part of the persist key, so both runs hold it.
	s1 := quickSuite()
	s1.PersistDir = dir
	s1.DeadlineCycles = 1 << 20
	s1.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.Hang, Prob: 1, Match: "alufetch_r0.50", Clause: -1},
	}}
	_, runs1, err := s1.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if n, _, _ := persisted(s1); n != int64(len(runs1)-1) {
		t.Fatalf("persisted %d points, want %d (the struck launch bypasses the store)", n, len(runs1)-1)
	}

	// Resume without the fault: only the missing point may recompute.
	s2 := quickSuite()
	s2.PersistDir = dir
	s2.DeadlineCycles = 1 << 20
	fig2, runs2, err := s2.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	wantResumed(t, s2, int64(len(runs2)-1), 1)
	for _, r := range runs2 {
		if r.Failed() {
			t.Fatalf("resumed sweep still has failures: %+v", r)
		}
	}

	// The resumed figure matches a clean unpersisted run bit for bit.
	clean := quickSuite()
	clean.DeadlineCycles = 1 << 20
	figClean, _, err := clean.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fig2.CSV() != figClean.CSV() {
		t.Fatalf("resumed figure differs from clean run:\n%s\nvs\n%s", fig2.CSV(), figClean.CSV())
	}
}

func TestCheckpointInterruptedMidSweepResumes(t *testing.T) {
	dir := t.TempDir()

	// A lost device kills the first run mid-sweep — the persist tier
	// keeps whatever completed before the abort.
	s1 := quickSuite()
	s1.Workers = 1 // deterministic: points complete in order until the fatal one
	s1.PersistDir = dir
	s1.Faults = &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.DeviceLost, Prob: 1, Match: "alufetch_r0.75"},
	}}
	_, _, err := s1.ALUFetchRatio(sweepCfg())
	if !errors.Is(err, cal.ErrDeviceLost) {
		t.Fatalf("want fatal abort, got %v", err)
	}
	completed, _, _ := persisted(s1)
	if completed == 0 {
		t.Fatal("nothing persisted before the abort")
	}

	s2 := quickSuite()
	s2.PersistDir = dir
	_, runs2, err := s2.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	wantResumed(t, s2, completed, int64(len(runs2))-completed)
}

func TestCheckpointIgnoresForeignSweep(t *testing.T) {
	dir := t.TempDir()

	s1 := quickSuite()
	s1.PersistDir = dir
	if _, _, err := s1.ALUFetchRatio(sweepCfg()); err != nil {
		t.Fatal(err)
	}

	// A different sweep (other card) over the same directory must
	// recompute everything, not serve foreign points.
	other := sweepCfg()
	other.Cards = []Card{{Arch: device.RV870, Mode: il.Pixel, Type: il.Float}}
	s2 := quickSuite()
	s2.PersistDir = dir
	_, runs2, err := s2.ALUFetchRatio(other)
	if err != nil {
		t.Fatal(err)
	}
	wantResumed(t, s2, 0, int64(len(runs2)))
}

func TestCheckpointRejectsSameNameDifferentKernelBody(t *testing.T) {
	dir := t.TempDir()

	s1 := quickSuite()
	s1.PersistDir = dir
	if _, _, err := s1.ALUFetchRatio(sweepCfg()); err != nil {
		t.Fatal(err)
	}

	// The same sweep with half the inputs: every kernel keeps its name
	// (alufetch names encode only the ratio), x and domain, but the IL
	// bodies differ. Serving the first run's results would splice the
	// 16-input timings into the 8-input figure.
	other := sweepCfg()
	other.Inputs = 8
	s2 := quickSuite()
	s2.PersistDir = dir
	_, runs2, err := s2.ALUFetchRatio(other)
	if err != nil {
		t.Fatal(err)
	}
	wantResumed(t, s2, 0, int64(len(runs2)))
}

func TestCheckpointTruncatedMidRecordRecovers(t *testing.T) {
	// A torn entry — the failure mode crash-atomic writes prevent on
	// rename-capable filesystems — must not wedge the resume: it is a
	// miss, recomputed and written through again.
	dir := t.TempDir()

	s1 := quickSuite()
	s1.PersistDir = dir
	if _, _, err := s1.ALUFetchRatio(sweepCfg()); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "simulate", "*", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no persisted entries (%v)", err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	// Truncate inside the record: valid prefix, unterminated JSON.
	if err := os.WriteFile(entries[0], data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := quickSuite()
	s2.PersistDir = dir
	fig2, runs2, err := s2.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatalf("truncated entry aborted the resume: %v", err)
	}
	wantResumed(t, s2, int64(len(runs2)-1), 1)
	clean := quickSuite()
	figClean, _, err := clean.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fig2.CSV() != figClean.CSV() {
		t.Errorf("recovered figure differs from clean run")
	}
}

// interruptAfter arms the test hook to call Interrupt once the sweep has
// started its nth launch, returning a counter of launches seen.
func interruptAfter(s *Suite, n int64) *atomic.Int64 {
	var seen atomic.Int64
	s.testHookBeforeRun = func(p point, attempt int) {
		if seen.Add(1) == n {
			s.Interrupt()
		}
	}
	return &seen
}

func TestInterruptedSweepResumesBitIdentical(t *testing.T) {
	// The resume-under-concurrency contract: a sweep cancelled mid-flight
	// on a multi-worker pool and resumed from the persist tier must produce
	// figure CSVs bit-identical to an uninterrupted run.
	dir := t.TempDir()

	// Eight points on two workers: interrupting at the second launch
	// leaves undispatched points behind, whatever the scheduling.
	cfg := sweepCfg()
	cfg.RatioMax = 2.0

	s1 := quickSuite()
	s1.Workers = 2
	s1.PersistDir = dir
	interruptAfter(s1, 2)
	_, _, err := s1.ALUFetchRatio(cfg)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("want ErrSweepInterrupted, got %v", err)
	}
	if got := s1.Metrics().Snapshot().Get("core.sweep.interrupted"); got != 1 {
		t.Errorf("core.sweep.interrupted = %d, want 1", got)
	}
	completed, _, _ := persisted(s1)
	if completed == 0 || completed >= 8 {
		t.Fatalf("persisted %d of 8 points; interrupt landed outside mid-sweep", completed)
	}

	s2 := quickSuite()
	s2.Workers = 2
	s2.PersistDir = dir
	fig2, runs2, err := s2.ALUFetchRatio(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantResumed(t, s2, completed, int64(len(runs2))-completed)

	clean := quickSuite()
	figClean, _, err := clean.ALUFetchRatio(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fig2.CSV() != figClean.CSV() {
		t.Fatalf("interrupted+resumed figure differs from clean run:\n%s\nvs\n%s", fig2.CSV(), figClean.CSV())
	}
}

func TestInterruptIdleSuiteIsNoop(t *testing.T) {
	s := quickSuite()
	s.Interrupt() // nothing in flight: must not wedge the next sweep
	if _, _, err := s.ALUFetchRatio(sweepCfg()); err != nil {
		t.Fatalf("sweep after idle Interrupt failed: %v", err)
	}
}

func TestRunKernelPointsMatchesFigureSweep(t *testing.T) {
	// RunKernelPoints is the soak campaigns' entry; driving the same
	// kernels through it must reproduce the figure sweep's runs exactly.
	s := quickSuite()
	fig, runs, err := s.ALUFetchRatio(sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	_ = fig

	s2 := quickSuite()
	var kps []KernelPoint
	card := sweepCfg().Cards[0]
	for _, r := range []float64{0.25, 0.5, 0.75, 1.0} {
		p := card.params(16, 1, il.TextureSpace, il.TextureSpace)
		p.ALUFetchRatio = r
		k, err := s2.generate(pipeline.GenALUFetch, p)
		if err != nil {
			t.Fatal(err)
		}
		kps = append(kps, KernelPoint{Card: card, X: r, K: k, W: 64, H: 64})
	}
	runs2, err := s2.RunKernelPoints(kps)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs2) != len(runs) {
		t.Fatalf("RunKernelPoints returned %d runs, want %d", len(runs2), len(runs))
	}
	for i := range runs {
		if runs[i] != runs2[i] {
			t.Errorf("run %d differs: %+v vs %+v", i, runs[i], runs2[i])
		}
	}
}
