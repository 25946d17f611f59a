package main

// End-to-end smoke tests: the CLI was the only untested layer. Every
// test drives run() exactly as main does, capturing both streams.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestTable1(t *testing.T) {
	code, out, stderr := runCLI(t, "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"Table I", "RV770", "1600", "DDR5"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Disassembly(t *testing.T) {
	code, out, stderr := runCLI(t, "fig2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"TEX:", "EXP_DONE", "GPRs=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7ASCII(t *testing.T) {
	code, out, stderr := runCLI(t, "-iters", "1", "fig7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "ALU:Fetch Ratio for 16 Inputs") {
		t.Errorf("fig7 plot missing title:\n%.400s", out)
	}
}

func TestFig7CSV(t *testing.T) {
	code, out, stderr := runCLI(t, "-iters", "1", "-csv", "fig7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 33 { // header comment + column header + 32 ratio rows
		t.Fatalf("fig7 CSV has %d lines, want >= 33:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "ALU:Fetch Ratio,") ||
		!strings.Contains(lines[1], "4870 Pixel Float4") {
		t.Errorf("CSV header: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "0.25,") {
		t.Errorf("first data row: %q", lines[2])
	}
}

func TestRunsTable(t *testing.T) {
	code, out, _ := runCLI(t, "-iters", "1", "-runs", "fig13")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "bottleneck") || !strings.Contains(out, "memory") {
		t.Errorf("-runs detail table missing:\n%.400s", out)
	}
}

func TestUsageAndUnknownExperiment(t *testing.T) {
	if code, _, stderr := runCLI(t); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("no-args: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "fig99"); code != 2 || !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("unknown experiment: exit %d, stderr %q", code, stderr)
	}
}

func TestBadFaultPlanRejected(t *testing.T) {
	code, _, stderr := runCLI(t, "-faults", "frobnicate", "fig13")
	if code != 2 || !strings.Contains(stderr, "unknown fault kind") {
		t.Errorf("bad plan: exit %d, stderr %q", code, stderr)
	}
}

func TestInjectedHangProducesFailureSummary(t *testing.T) {
	code, out, stderr := runCLI(t,
		"-iters", "1", "-timeout", "1048576",
		"-faults", "hang:prob=1,match=writelat_o3",
		"fig13")
	if code != 3 {
		t.Fatalf("exit %d, want 3 (completed with recorded failures); stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "Failure summary") || !strings.Contains(out, "kernel timeout") {
		t.Errorf("failure summary missing:\n%s", out)
	}
	if !strings.Contains(stderr, "failed and were recorded") {
		t.Errorf("stderr lacks failure note: %q", stderr)
	}
}

// metricsOf decodes the -metrics-json registry a run wrote to stderr
// into counter name -> value.
func metricsOf(t *testing.T, stderr string) map[string]int64 {
	t.Helper()
	idx := strings.Index(stderr, "{")
	if idx < 0 {
		t.Fatalf("no metrics JSON on stderr:\n%s", stderr)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.NewDecoder(strings.NewReader(stderr[idx:])).Decode(&snap); err != nil {
		t.Fatalf("-metrics-json output is not valid JSON: %v", err)
	}
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	return counters
}

func TestCheckpointResumeEndToEnd(t *testing.T) {
	cache := t.TempDir()
	// The watchdog budget is part of the persist key: every run holds it.
	base := []string{"-iters", "1", "-timeout", "1048576", "-cache-dir", cache, "-metrics-json"}
	// First run records timeout failures; completed points persist.
	code, _, stderr := runCLI(t, append(base, "-faults", "hang:prob=1,match=writelat_o3", "fig13")...)
	if code != 3 {
		t.Fatalf("first run exit %d, stderr: %s", code, stderr)
	}
	first := metricsOf(t, stderr)
	written, failed := first["pipeline.persist.writes"], first["core.sweep.points.failed"]
	if written == 0 || failed == 0 {
		t.Fatalf("first run persisted %d points and failed %d; want both nonzero", written, failed)
	}
	// Re-run without faults resumes: only the failed points compute.
	code, out, stderr := runCLI(t, append(base, "fig13")...)
	if code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, stderr)
	}
	if strings.Contains(out, "Failure summary") {
		t.Errorf("resume still reports failures:\n%s", out)
	}
	m := metricsOf(t, stderr)
	if m["pipeline.persist.hits"] != written || m["pipeline.persist.misses"] != failed {
		t.Errorf("resume served %d and computed %d points, want %d served and %d computed",
			m["pipeline.persist.hits"], m["pipeline.persist.misses"], written, failed)
	}
	// The resumed figure is identical to a clean run's.
	_, clean, _ := runCLI(t, "-iters", "1", "-timeout", "1048576", "-csv", "fig13")
	_, resumed, _ := runCLI(t, "-iters", "1", "-timeout", "1048576", "-csv", "-cache-dir", cache, "fig13")
	if clean != resumed {
		t.Errorf("resumed CSV differs from clean run:\n%s\nvs\n%s", resumed, clean)
	}
}

func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	code, _, stderr := runCLI(t, "-cpuprofile", cpu, "-memprofile", mem, "-iters", "1", "fig13")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	// A CPU profile sink that cannot be created is a usage error.
	code, _, stderr = runCLI(t, "-cpuprofile", filepath.Join(dir, "no", "such", "dir.prof"), "fig13")
	if code != 2 || !strings.Contains(stderr, "cpuprofile") {
		t.Errorf("bad -cpuprofile path: exit %d, stderr %q", code, stderr)
	}
}

func TestWriteFigureFiles(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "-iters", "1", "-o", dir, "fig13")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, f := range []string{"fig13.csv", "fig13.gp"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestTraceFlagWritesNestedSpans(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	code, _, stderr := runCLI(t, "-iters", "1", "-trace", tracePath, "fig13")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("-trace output is not valid trace_event JSON: %v", err)
	}
	type span struct {
		ts, dur float64
		tid     int
	}
	var launches []span
	byName := map[string][]span{}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		s := span{ts: e.TS, dur: e.Dur, tid: e.TID}
		byName[e.Name] = append(byName[e.Name], s)
		if e.Name == "launch" {
			launches = append(launches, s)
		}
	}
	if len(launches) == 0 {
		t.Fatal("trace has no launch spans")
	}
	// Every pipeline stage must appear, and every stage span must nest
	// inside some launch span on the same track.
	for _, stage := range []string{"compile", "trace", "replay", "simulate"} {
		spans := byName[stage]
		if len(spans) == 0 {
			t.Errorf("trace has no %q spans", stage)
			continue
		}
		for _, s := range spans {
			nested := false
			for _, l := range launches {
				if s.tid == l.tid && s.ts >= l.ts && s.ts+s.dur <= l.ts+l.dur+1 {
					nested = true
					break
				}
			}
			if !nested {
				t.Errorf("%q span at ts=%f (tid %d) is not nested in any launch span", stage, s.ts, s.tid)
				break
			}
		}
	}
	if len(byName["generate"]) == 0 {
		t.Error("trace has no generate spans")
	}
}

func TestMetricsFlagReportsCacheAndSweepCounters(t *testing.T) {
	code, out, stderr := runCLI(t, "-iters", "1", "-metrics", "fig13")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"pipeline.compile.hits", "pipeline.simulate.misses",
		"core.sweep.points.completed", "cal.launches",
		"pipeline.compile.compute_latency_ns",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-metrics stderr missing %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(out, "pipeline.") {
		t.Errorf("-metrics leaked into figure output:\n%s", out)
	}
}

func TestProgressFlagRendersOnStderr(t *testing.T) {
	code, _, stderr := runCLI(t, "-iters", "1", "-progress", "fig13")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"points", "(100%)", "cache hit"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-progress stderr missing %q: %q", want, stderr)
		}
	}
}

func TestMaxDomainClampsSweeps(t *testing.T) {
	code, out, stderr := runCLI(t, "-iters", "1", "-csv", "-max-domain", "16", "fig7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	// Clamped run keeps the sweep's shape (same rows) with smaller domains.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 33 {
		t.Fatalf("clamped fig7 CSV has %d lines, want >= 33:\n%s", len(lines), out)
	}
	// A clamped domain must not resume full-domain results.
	cache := t.TempDir()
	if code, _, stderr := runCLI(t, "-iters", "1", "-cache-dir", cache, "fig13"); code != 0 {
		t.Fatalf("full-domain run exit %d, stderr: %s", code, stderr)
	}
	code, _, stderr = runCLI(t, "-iters", "1", "-cache-dir", cache, "-max-domain", "16", "-metrics-json", "fig13")
	if code != 0 {
		t.Fatalf("clamped run exit %d, stderr: %s", code, stderr)
	}
	if hits := metricsOf(t, stderr)["pipeline.persist.hits"]; hits != 0 {
		t.Errorf("clamped run served %d full-domain results from the cache", hits)
	}
}

func TestNoCacheFlagMatchesCachedOutput(t *testing.T) {
	codeA, cached, stderr := runCLI(t, "-csv", "-iters", "1", "fig7")
	if codeA != 0 {
		t.Fatalf("cached run: exit %d, stderr: %s", codeA, stderr)
	}
	codeB, uncached, stderr := runCLI(t, "-csv", "-iters", "1", "-no-cache", "fig7")
	if codeB != 0 {
		t.Fatalf("-no-cache run: exit %d, stderr: %s", codeB, stderr)
	}
	if cached != uncached {
		t.Error("-no-cache changed figure output; caching must be invisible in results")
	}
}
