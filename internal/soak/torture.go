package soak

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// Crash torture is the out-of-process half of the kill/resume story:
// where the in-process cycles (runKillResume) prove a cleanly cancelled
// sweep resumes, torture proves a SIGKILLed *process* does — the kill
// lands at whatever instant the persist tier's writer happens to be in,
// which is exactly what the crash-atomic write protocol must survive.
// The harness runs a child amdmb sweep against a cache directory, waits
// for it to make progress, kills it without ceremony, and repeats; the
// final run must complete cleanly, and the caller compares its output
// bit-for-bit against an uninterrupted run. The directory is scanned for
// torn entries after every child exits and before the next one starts:
// a later child that loads a torn entry treats it as a miss and
// rewrites it, so a scan made only at the end would never see the tear.

// TortureConfig parameterises a torture session.
type TortureConfig struct {
	// NewChild builds the child command for each cycle. Every cycle's
	// command must describe the same sweep against CacheDir, or the
	// resume serves nothing and nothing is being tested. A child must
	// exit nonzero when its persist tier counted an error (a failed
	// write, or an entry it could not read), so that the final run
	// vouches for the directory it leaves behind.
	NewChild func(cycle int) *exec.Cmd
	// CacheDir is the persist directory the children share; progress is
	// measured by its entry count growing.
	CacheDir string
	// Cycles is how many SIGKILLs to land; zero means 3.
	Cycles int
	// Poll is the progress-poll interval; zero means 10ms.
	Poll time.Duration
	// Timeout bounds each cycle's wait for progress (and the final clean
	// run); zero means 2 minutes.
	Timeout time.Duration
	// Out, when non-nil, receives one line per cycle.
	Out io.Writer
}

// TortureResult is a session's outcome.
type TortureResult struct {
	// Kills counts children SIGKILLed after making progress.
	Kills int
	// CleanExits counts children that finished the sweep before the kill
	// landed (the sweep ran out of points to torture).
	CleanExits int
	// Unreadable counts the distinct persisted entries that failed to
	// parse in any scan — every one is a torn write the atomic write
	// protocol let through, and the caller should treat any nonzero count
	// as a failure.
	Unreadable int
	// Restored is the entry count the final clean run started from.
	Restored int
}

// Torture runs the session: Cycles kills, then one run to completion.
func Torture(cfg TortureConfig) (*TortureResult, error) {
	if cfg.NewChild == nil || cfg.CacheDir == "" {
		return nil, fmt.Errorf("soak: torture needs NewChild and CacheDir")
	}
	cycles := cfg.Cycles
	if cycles <= 0 {
		cycles = 3
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}

	res := &TortureResult{}
	torn := map[string]bool{}
	scan := func() {
		for _, path := range cacheEntries(cfg.CacheDir) {
			if !torn[path] && !readable(path) {
				torn[path] = true
				res.Unreadable++
			}
		}
	}
	for cycle := 0; cycle < cycles; cycle++ {
		base := len(cacheEntries(cfg.CacheDir))
		cmd := cfg.NewChild(cycle)
		if err := cmd.Start(); err != nil {
			return res, fmt.Errorf("soak: torture cycle %d: %w", cycle, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		deadline := time.Now().Add(timeout)
		killed := false
	wait:
		for {
			select {
			case err := <-exited:
				// The child finished (or died) before we saw progress.
				if err != nil {
					return res, fmt.Errorf("soak: torture cycle %d: child failed before kill: %w", cycle, err)
				}
				res.CleanExits++
				scan()
				break wait
			default:
			}
			if len(cacheEntries(cfg.CacheDir)) > base {
				// Progress observed: kill mid-sweep, quite possibly
				// mid-write.
				_ = cmd.Process.Kill()
				<-exited
				scan()
				res.Kills++
				killed = true
				break wait
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				<-exited
				return res, fmt.Errorf("soak: torture cycle %d: no persisted progress within %v", cycle, timeout)
			}
			time.Sleep(poll)
		}
		if cfg.Out != nil {
			verb := "killed"
			if !killed {
				verb = "finished clean"
			}
			fmt.Fprintf(cfg.Out, "torture cycle %d: %s at %d persisted points\n",
				cycle, verb, len(cacheEntries(cfg.CacheDir)))
		}
		if !killed {
			break // nothing left to torture
		}
	}

	// The survivor: run to completion from whatever the kills left.
	res.Restored = len(cacheEntries(cfg.CacheDir))
	final := cfg.NewChild(cycles)
	done := make(chan error, 1)
	if err := final.Start(); err != nil {
		return res, fmt.Errorf("soak: torture final run: %w", err)
	}
	go func() { done <- final.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return res, fmt.Errorf("soak: torture final run failed: %w", err)
		}
	case <-time.After(timeout):
		_ = final.Process.Kill()
		<-done
		return res, fmt.Errorf("soak: torture final run exceeded %v", timeout)
	}

	scan()
	return res, nil
}

// cacheEntries lists the published entries of dir's simulate tier; its
// length is the harness's progress measure. An fsatomic temp file
// (<entry>.json.tmp-<random>) does not match: it is a writer's work in
// progress, which a kill may orphan but never publishes.
func cacheEntries(dir string) []string {
	paths, _ := filepath.Glob(filepath.Join(dir, "simulate", "*", "*.json"))
	return paths
}

// readable reports whether the entry at path parses; one that does not
// is a torn write the crash-atomic protocol let through.
func readable(path string) bool {
	data, err := os.ReadFile(path)
	return err == nil && json.Valid(data)
}
