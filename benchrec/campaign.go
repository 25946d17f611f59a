package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
)

const (
	wlFlagship  = "flagship"
	wlHier      = "hier"
	wlDaemonMix = "daemon-mix"
)

// campaignFigs are the figures of the two single-campaign workloads.
// Both sets are pinned byte for byte by cmd/amdmb/testdata/golden.
var campaignFigs = map[string][]string{
	// The paper's headline figures: every layer does real work, with
	// cross-figure dedup, so plan, compile, replay and simulate changes
	// all show here.
	wlFlagship: {"fig7", "fig8", "fig11", "fig16"},
	// The hierarchy dissection: long kernels and long fetch schedules,
	// so compile and replay dominate, with no generate stage and almost
	// no dedup.
	wlHier: {"hier-lat", "hier-line", "hier-stride", "hier-wset"},
}

// minPasses is the fewest measured passes a run makes, however short
// --seconds is.
const minPasses = 3

// seededFigs is the workload's figures in a seeded order. The order is
// the output order; the plan's unit schedule does not depend on it, so
// every seed does the same work.
func seededFigs(workload string, seed int64) []string {
	figs := campaignFigs[workload]
	out := make([]string, len(figs))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(figs)) {
		out[i] = figs[j]
	}
	return out
}

func loadGoldens(root string, figs []string) (map[string]string, error) {
	g := make(map[string]string, len(figs))
	for _, f := range figs {
		b, err := os.ReadFile(filepath.Join(root, "cmd", "amdmb", "testdata", "golden", f+".csv"))
		if err != nil {
			return nil, err
		}
		g[f] = string(b)
	}
	return g, nil
}

// checkGoldens compares one pass's CSVs with the goldens. A golden file
// is the figure's CSV followed by the blank line amdmb prints after it.
func checkGoldens(out *outcome, goldens map[string]string, figs []string, csvs []string) {
	for i, f := range figs {
		if csvs[i]+"\n" != goldens[f] {
			out.mismatch("%s CSV differs from cmd/amdmb/testdata/golden/%s.csv", f, f)
		}
	}
}

// pass is one measured campaign pass.
type pass struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	units  int
	failed int
	csvs   []string
	suite  *core.Suite
}

// campaignPass runs the figures as one campaign on a fresh suite, caches
// on and no persist directory, and renders their CSVs.
func campaignPass(figs []string) (pass, error) {
	s := newSuite(workers)
	runtime.GC() // leave no collection debt from earlier passes to this one
	cpu0, a0 := cpuTime(), heapAllocs()
	start := time.Now()
	specs, err := campaign.Specs(s, figs)
	if err != nil {
		return pass{}, err
	}
	p, err := campaign.NewPlan(specs, campaign.Options{})
	if err != nil {
		return pass{}, err
	}
	res, err := p.Run(s)
	if err != nil {
		return pass{}, err
	}
	csvs := make([]string, len(res.Figures))
	for i, f := range res.Figures {
		csvs[i] = f.CSV()
	}
	return pass{
		wall:   time.Since(start),
		cpu:    cpuTime() - cpu0,
		allocs: heapAllocs() - a0,
		units:  len(p.Units),
		failed: res.Failed(),
		csvs:   csvs,
		suite:  s,
	}, nil
}

func runCampaign(o options, stderr io.Writer) (outcome, error) {
	figs := seededFigs(o.workload, o.seed)
	goldens, err := loadGoldens(o.root, figs)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{samples: map[string]int{}}
	if o.trace {
		return out, tracedCampaign(o, &out, figs, goldens)
	}

	setup, err := setupProbes(o, &out, stderr, nil)
	if err != nil {
		return out, err
	}

	var walls sample
	var cpu time.Duration
	var allocs uint64
	var units int
	var last pass
	start := time.Now()
	for len(walls) < minPasses || time.Since(start).Seconds() < o.seconds {
		last = pass{} // let the previous suite go before the next pass
		if last, err = campaignPass(figs); err != nil {
			return out, err
		}
		checkGoldens(&out, goldens, figs, last.csvs)
		walls = append(walls, last.wall.Seconds())
		cpu += last.cpu
		allocs += last.allocs
		units += last.units
		out.attempted += last.units
		out.failed += last.failed
	}
	elapsed := walls.sum()
	retained := retainedMB()
	runtime.KeepAlive(last.suite)

	setupMed, setupN := setup.median()
	p50, n := walls.median()
	p90, _, beyond := walls.percentile(90)
	out.samples["setup_s"] = setupN
	out.samples["pass_s"] = n
	out.samples["job_s_p90_beyond"] = beyond
	// On these workloads a job is one campaign pass, as `amdmb campaign`
	// runs it.
	out.values = map[string]float64{
		"setup_s":           setupMed,
		"pass_s_p50":        p50,
		"job_s_p50":         p50,
		"job_s_p90":         p90,
		"jobs_per_s":        float64(len(walls)) / elapsed,
		"cpu_ms_per_unit":   float64(cpu.Nanoseconds()) / 1e6 / float64(units),
		"alloc_kb_per_unit": float64(allocs) / 1024 / float64(units),
		"retained_mb":       retained,
	}
	return out, nil
}

// tracedCampaign alternates an untraced one-worker pass with a traced
// pass on fresh suites until the time is up, and reports each per-layer
// metric's median over the pairs.
func tracedCampaign(o options, out *outcome, figs []string, goldens map[string]string) error {
	reqs := []request{{Figs: figs}}
	per := map[string]sample{}
	start := time.Now()
	for n := 0; n < 1 || time.Since(start).Seconds() < o.seconds; n++ {
		s := newSuite(1)
		wall, unitRuns, csvs, err := untracedRun(s, reqs)
		if err != nil {
			return err
		}
		checkGoldens(out, goldens, figs, csvs[0])
		rates := hitRates(s.Metrics().Snapshot().Get)

		trRuns, l, err := traced(newSuite(1), reqs)
		if err != nil {
			return err
		}
		if err := sameRuns(trRuns, unitRuns); err != nil {
			out.mismatch("traced run differs from untraced: %v", err)
		}
		out.attempted += l.units
		for k, v := range layerValues(l, wall) {
			per[k] = append(per[k], v)
		}
		for k, v := range rates {
			per[k] = append(per[k], v)
		}
	}
	for _, k := range []string{"persist.disk_mb", "daemon.submit_ms_p50", "daemon.run_ms_p50", "daemon.csv_ms_p50", "daemon.polls_per_job", "daemon.csv_kb_per_job"} {
		per[k] = sample{0} // no daemon and no persist directory on this workload
	}
	summarize(out, per)
	return nil
}

// summarize reports each per-layer metric as the median of its samples
// and checks the traced run's coverage.
func summarize(out *outcome, per map[string]sample) {
	out.values = make(map[string]float64, len(per))
	for k, s := range per {
		v, n := s.median()
		out.values[k] = v
		out.samples[k] = n
	}
	if c := out.values["traced.coverage"]; c < 0.9 {
		out.mismatch("traced layers cover %.3f of the traced wall time, want at least 0.9", c)
	}
}

// setupProbes times setupRepeats fresh processes, each setting the
// workload up once, and returns their wall times. args, when non-nil,
// gives the extra arguments of the i-th probe. A probe whose output check
// failed counts as a mismatch in out.
func setupProbes(o options, out *outcome, stderr io.Writer, args func(i int) []string) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var walls sample
	for i := 0; i < setupRepeats; i++ {
		argv := []string{"-setup-probe", "-workload", o.workload, "-seed", fmt.Sprint(o.seed)}
		if args != nil {
			argv = append(argv, args(i)...)
		}
		cmd := exec.Command(exe, argv...)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		syscall.Sync() // start each probe with nothing left to write back
		start := time.Now()
		err := cmd.Run()
		wall := time.Since(start).Seconds()
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit) && exit.ExitCode() == exitCheck:
			out.mismatch("setup probe %d: output check failed", i)
		case err != nil:
			return nil, fmt.Errorf("setup probe %d: %w", i, err)
		}
		walls = append(walls, wall)
	}
	return walls, nil
}

// setupOnce is a setup probe's body: everything a fresh process does
// before it can serve the workload's first result. On flagship and hier
// that is the first campaign pass, with its output check; on daemon-mix
// it is priming the persist directory.
func setupOnce(o options, primeDir string) error {
	if o.workload == wlDaemonMix {
		return prime(o, primeDir)
	}
	figs := seededFigs(o.workload, o.seed)
	goldens, err := loadGoldens(o.root, figs)
	if err != nil {
		return err
	}
	p, err := campaignPass(figs)
	if err != nil {
		return err
	}
	var out outcome
	checkGoldens(&out, goldens, figs, p.csvs)
	if len(out.mismatches) > 0 || p.failed > 0 {
		return fmt.Errorf("%w: %v, %d failed units", errCheck, out.mismatches, p.failed)
	}
	return nil
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedMB is the live heap after a full collection.
func retainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
