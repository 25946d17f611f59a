package soak

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"amdgpubench/internal/core"
)

// The crash-torture test re-executes its own test binary as the victim:
// TestMain diverts into tortureChild when the marker env var is set, so
// the child is a real OS process running a real persisted sweep that a
// real SIGKILL lands on — no in-process simulation of "crash".

const (
	childEnvMarker   = "AMDMB_SOAK_TORTURE_CHILD"
	childEnvCacheDir = "AMDMB_SOAK_CHILD_CACHE_DIR"
	childEnvOut      = "AMDMB_SOAK_CHILD_OUT"
)

func TestMain(m *testing.M) {
	switch os.Getenv(childEnvMarker) {
	case "1":
		os.Exit(tortureChild())
	case "tear":
		os.Exit(tearChild(`{"Seco`, time.Minute))
	case "heal":
		os.Exit(tearChild(`{"Seconds":1}`, 0))
	}
	os.Exit(m.Run())
}

// childPoints is the sweep every torture child runs: one campaign
// step's worth of seeded kernels, wide enough (24 points) that three
// kills always land mid-sweep.
func childPoints() []core.KernelPoint {
	cfg := Config{Seed: 1234, KernelsPerStep: 24, MaxDomain: 48}.withDefaults()
	return planStep(cfg, 0).points
}

// tortureChild runs the fixed sweep against the inherited cache
// directory and writes the runs as JSON. It slows each launch a little
// so the parent's progress poll always catches a mid-sweep instant to
// kill. Every completed point is written through as it finishes, so
// each one is another instant for a kill to tear.
func tortureChild() int {
	s := core.NewSuite()
	s.Iterations = 1
	s.Workers = 2
	s.Retries = 2
	s.DeadlineCycles = 1 << 22
	s.PersistDir = os.Getenv(childEnvCacheDir)
	s.BeforeLaunch = func() { time.Sleep(3 * time.Millisecond) }
	runs, err := s.RunKernelPoints(childPoints())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if n := s.Metrics().Snapshot().Get("pipeline.persist.errors"); n > 0 {
		fmt.Fprintf(os.Stderr, "%d persist errors\n", n)
		return 1
	}
	data, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(os.Getenv(childEnvOut), data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// TestTortureSurvivesRepeatedSIGKILL is the acceptance criterion: three
// consecutive SIGKILL/resume cycles, zero unreadable persisted entries,
// and the survivor's results bit-identical to an uninterrupted run.
func TestTortureSurvivesRepeatedSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	cache := dir + "/torture.cache"
	out := dir + "/tortured.json"

	child := func(cycle int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			childEnvMarker+"=1",
			childEnvCacheDir+"="+cache,
			childEnvOut+"="+out,
		)
		cmd.Stderr = os.Stderr
		return cmd
	}

	var log bytes.Buffer
	res, err := Torture(TortureConfig{
		NewChild: child,
		CacheDir: cache,
		Cycles:   3,
		Poll:     time.Millisecond,
		Timeout:  90 * time.Second,
		Out:      &log,
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if res.Kills != 3 {
		t.Errorf("landed %d kills, want 3 (%d clean exits)\n%s", res.Kills, res.CleanExits, log.String())
	}
	if res.Unreadable != 0 {
		t.Errorf("%d unreadable entries after SIGKILL torture; the atomic write protocol tore", res.Unreadable)
	}
	if res.Restored == 0 {
		t.Error("final run restored nothing: the kills never preserved progress")
	}

	tortured, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference: same sweep, fresh cache, no kills.
	refOut := dir + "/reference.json"
	refCmd := exec.Command(os.Args[0])
	refCmd.Env = append(os.Environ(),
		childEnvMarker+"=1",
		childEnvCacheDir+"="+dir+"/reference.cache",
		childEnvOut+"="+refOut,
	)
	refCmd.Stderr = os.Stderr
	if err := refCmd.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	reference, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tortured, reference) {
		t.Errorf("tortured results differ from uninterrupted reference\n tortured:  %d bytes\n reference: %d bytes",
			len(tortured), len(reference))
	}
}

func TestTortureConfigValidation(t *testing.T) {
	if _, err := Torture(TortureConfig{}); err == nil {
		t.Fatal("empty torture config accepted")
	}
}

// TestCacheEntriesCounts pins the harness's progress and tear measures:
// published entries count, a torn entry counts as unreadable, and an
// fsatomic temp file a kill orphaned is no entry at all.
func TestCacheEntriesCounts(t *testing.T) {
	dir := t.TempDir()
	if n := len(cacheEntries(dir)); n != 0 {
		t.Fatalf("empty dir counted %d entries", n)
	}
	shard := filepath.Join(dir, "simulate", "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"ab01.json":                `{"Seconds":1}`,
		"ab02.json":                `{"Seconds":2}`,
		"ab03.json":                `{"Seco`,
		"ab04.json.tmp-1234567890": `{"Seconds":4}`,
	} {
		if err := os.WriteFile(filepath.Join(shard, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries := cacheEntries(dir)
	bad := 0
	for _, path := range entries {
		if !readable(path) {
			bad++
		}
	}
	if n := len(entries); n != 3 || bad != 1 {
		t.Fatalf("counted %d entries, %d unreadable; want 3 and 1", n, bad)
	}
}

// tearChild publishes body as one entry under the inherited cache
// directory, then sleeps for hang. With a torn body and a long hang it
// stands in for a writer the atomic protocol failed, killed mid-sweep;
// with a valid body and no hang, for a resume that rewrote the entry.
func tearChild(body string, hang time.Duration) int {
	dir := filepath.Join(os.Getenv(childEnvCacheDir), "simulate", "ab")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1
	}
	if err := os.WriteFile(filepath.Join(dir, "ab01.json"), []byte(body), 0o644); err != nil {
		return 1
	}
	time.Sleep(hang)
	return 0
}

// TestTortureCountsTearBeforeResumeHeals keeps the torn-write gate
// honest: a resumed sweep rewrites a torn entry as a miss, so the
// harness must count the tear before the next child starts, not after
// the survivor. The victim tears an entry and is killed; the survivor
// heals it; the tear must still be counted.
func TestTortureCountsTearBeforeResumeHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cache := t.TempDir()
	res, err := Torture(TortureConfig{
		NewChild: func(cycle int) *exec.Cmd {
			mode := "tear"
			if cycle > 0 {
				mode = "heal" // the survivor rewrites the entry, as a resume would
			}
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), childEnvMarker+"="+mode, childEnvCacheDir+"="+cache)
			return cmd
		},
		CacheDir: cache,
		Cycles:   1,
		Poll:     time.Millisecond,
		Timeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills != 1 || res.Unreadable != 1 {
		t.Fatalf("kills=%d unreadable=%d, want 1 and 1", res.Kills, res.Unreadable)
	}
	data, err := os.ReadFile(filepath.Join(cache, "simulate", "ab", "ab01.json"))
	if err != nil || !json.Valid(data) {
		t.Fatalf("survivor did not heal the entry: %q %v", data, err)
	}
}
