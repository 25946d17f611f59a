package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"amdgpubench/internal/cal"
	"amdgpubench/internal/il"
	"amdgpubench/internal/obs"
)

// The suite's sweeps are embarrassingly parallel: every (card, parameter)
// point compiles and simulates independently and deterministically. This
// file is the resilient sweep runner they execute on: a fixed worker set
// (never more goroutines than workers, however large the sweep), panic
// recovery into per-point failure records, bounded retry with backoff
// for transient launch faults, cancellation of the remaining points on
// the first fatal error. Resume is not the runner's concern: completed
// launches persist through the pipeline's content-addressed simulate
// tier (Suite.PersistDir), so a re-run serves them from disk.

// point is one sweep job: a kernel to time on a card at an x coordinate.
type point struct {
	card Card
	x    float64
	k    *il.Kernel
	w, h int
}

// Workers sets the sweep parallelism; zero means GOMAXPROCS. It is a
// Suite field so tests can force serial execution.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// errLaunchPanic marks a panic recovered from a worker: the point failed,
// the sweep — and the process — survive.
var errLaunchPanic = errors.New("panic during launch")

// ErrSweepInterrupted reports that Interrupt cancelled the sweep before
// every point completed. Points finished up to that moment are already
// in the persist tier (when PersistDir is set), so a re-run with the
// same configuration serves them from disk — the in-process half of the
// kill/resume cycles the soak campaigns exercise.
var ErrSweepInterrupted = errors.New("core: sweep interrupted")

// Interrupt cancels every in-flight sweep on the suite: undispatched
// points are abandoned and RunPoints returns ErrSweepInterrupted.
// Points already dispatched complete (and persist) normally. Safe from
// any goroutine; a suite with no sweep in flight ignores it.
func (s *Suite) Interrupt() {
	s.intrMu.Lock()
	defer s.intrMu.Unlock()
	for _, stop := range s.sweepStops {
		stop()
	}
}

// registerSweep adds a running sweep's stop function to the interrupt
// set and returns its removal.
func (s *Suite) registerSweep(stop func()) (unregister func()) {
	s.intrMu.Lock()
	defer s.intrMu.Unlock()
	s.sweepSeq++
	id := s.sweepSeq
	if s.sweepStops == nil {
		s.sweepStops = make(map[uint64]func())
	}
	s.sweepStops[id] = stop
	return func() {
		s.intrMu.Lock()
		defer s.intrMu.Unlock()
		delete(s.sweepStops, id)
	}
}

// KernelPoint is one externally supplied sweep point: a prebuilt kernel
// timed on a card at an x coordinate. It is how non-figure drivers — the
// soak campaigns above all — put arbitrary generated kernels through the
// resilient sweep runner with everything the paper sweeps get: worker
// pool, retries with backoff, fault injection, panic fences, failure
// records, and resume through the persist tier.
type KernelPoint struct {
	Card Card
	X    float64
	K    *il.Kernel
	W, H int
}

// RunKernelPoints times every point and returns the runs in input order,
// with the same failure policy as the figure sweeps.
func (s *Suite) RunKernelPoints(kps []KernelPoint) ([]Run, error) {
	return s.RunPoints(context.Background(), kps, nil, 0, 1)
}

// RunPoints is the sweep runner every entry point funnels into: it times
// the points of one shard of a deterministic interleaved partition and
// returns one Run per input point, in input order. Only points with
// index i%shards == shard execute; the rest stay zero Runs. shards <= 1
// runs everything. Device contexts are created up front so a bad card
// fails the sweep before any worker starts.
//
// Failure policy, per the cal taxonomy: transient launch failures retry
// up to s.Retries times with doubling backoff; timeouts, exhausted
// transients and recovered panics become per-point failure records
// (Run.Err) and the sweep continues; anything else — a lost device, a
// compile or configuration error — is fatal, cancels the undispatched
// points and fails the sweep.
//
// observe, when non-nil, is called on the worker goroutine just before
// point i's first launch attempt, and the function it returns is called
// right after the point resolves (completed or failure record). The
// campaign scheduler uses it for per-unit spans and counters.
//
// Cancelling parent stops the sweep exactly like Suite.Interrupt —
// undispatched points are abandoned, dispatched points complete, and the
// sweep returns ErrSweepInterrupted — but scoped to this sweep alone, for
// callers multiplexing several sweeps over one suite (the daemon).
//
// Nothing here persists results: with PersistDir set, every completed
// launch is written through to the content-addressed simulate tier, so
// re-running an interrupted sweep, or the unsharded run after its
// shards, serves finished points from disk.
func (s *Suite) RunPoints(parent context.Context, kps []KernelPoint, observe func(i int) func(Run), shard, shards int) ([]Run, error) {
	if shards > 1 && (shard < 0 || shard >= shards) {
		return nil, fmt.Errorf("core: shard %d out of range 0..%d", shard, shards-1)
	}
	mine := func(i int) bool { return shards <= 1 || i%shards == shard }
	pts := make([]point, len(kps))
	for i, kp := range kps {
		p := point{card: kp.Card, x: kp.X, k: kp.K, w: kp.W, h: kp.H}
		if s.MaxDomain > 0 {
			p.w = min(p.w, s.MaxDomain)
			p.h = min(p.h, s.MaxDomain)
		}
		pts[i] = p
	}
	for _, p := range pts {
		if _, err := s.context(p.card.Arch); err != nil {
			return nil, err
		}
	}
	runs := make([]Run, len(pts))
	ctr := s.counters()
	scheduled := 0
	for i := range pts {
		if mine(i) {
			scheduled++
		}
	}

	var prog *obs.Progress
	if s.Progress != nil {
		prog = obs.NewProgress(s.Progress, "sweep", scheduled)
		defer prog.Finish()
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Interrupt stops the sweep through the same cancellation the fatal
	// path uses; the flag separates "user asked" from "sweep died".
	var intr atomic.Bool
	unregister := s.registerSweep(func() {
		intr.Store(true)
		cancel()
	})
	defer unregister()

	var (
		mu       sync.Mutex
		fatalErr error
	)
	fatal := func(err error) {
		mu.Lock()
		if fatalErr == nil {
			fatalErr = err
			cancel()
		}
		mu.Unlock()
	}

	// A fixed worker set fed from a channel: a 10k-point sweep runs on
	// s.workers() goroutines, not 10k.
	workers := s.workers()
	if workers > scheduled {
		workers = scheduled
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				var end func(Run)
				if observe != nil {
					end = observe(i)
				}
				run, err := s.runPointResilient(ctx, pts[i])
				if err != nil {
					fatal(err)
					continue
				}
				if end != nil {
					end(run)
				}
				runs[i] = run
				if run.Failed() {
					ctr.failed.Inc()
				} else {
					ctr.completed.Inc()
				}
				if prog != nil {
					prog.Point(run.Failed(), s.cacheHitRate())
				}
			}
		}()
	}
feed:
	for i := range pts {
		if !mine(i) {
			continue
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if fatalErr != nil {
		return nil, fatalErr
	}
	if intr.Load() || parent.Err() != nil {
		ctr.interrupted.Inc()
		return nil, ErrSweepInterrupted
	}
	var failed []Run
	for _, r := range runs {
		if r.Failed() {
			failed = append(failed, r)
		}
	}
	if len(failed) > 0 {
		s.mu.Lock()
		s.failures = append(s.failures, failed...)
		s.mu.Unlock()
	}
	return runs, nil
}

// runPointResilient drives one point through the retry policy. A non-nil
// error is fatal for the sweep; recoverable failures come back as a Run
// failure record.
func (s *Suite) runPointResilient(ctx context.Context, p point) (Run, error) {
	ctr := s.counters()
	backoff := s.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	attempt := 0
	for {
		run, err := s.runKernelSafe(p, attempt)
		attempt++
		if err == nil {
			run.X = p.x
			run.Attempts = attempt
			return run, nil
		}
		if cal.IsTransient(err) && attempt <= s.Retries && ctx.Err() == nil {
			ctr.retries.Inc()
			ctr.backoffNS.Add(backoff.Nanoseconds())
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
			}
			backoff *= 2
			continue
		}
		if errors.Is(err, errLaunchPanic) {
			ctr.panics.Inc()
		}
		if errors.Is(err, cal.ErrKernelTimeout) {
			ctr.timeouts.Inc()
		}
		if cal.IsRecoverable(err) || errors.Is(err, errLaunchPanic) {
			return Run{
				Card: p.card, X: p.x, Attempts: attempt,
				Err: fmt.Sprintf("%s at x=%g: %v", p.card.Label(), p.x, err),
			}, nil
		}
		return Run{}, fmt.Errorf("core: %s at x=%g: %w", p.card.Label(), p.x, err)
	}
}

// runKernelSafe is runKernel behind a panic fence: a panicking launch on
// a worker must fail its point, not the process.
func (s *Suite) runKernelSafe(p point, attempt int) (run Run, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: %v", errLaunchPanic, rec)
		}
	}()
	if s.BeforeLaunch != nil {
		s.BeforeLaunch()
	}
	if s.testHookBeforeRun != nil {
		s.testHookBeforeRun(p, attempt)
	}
	return s.runKernel(p.card, p.k, p.w, p.h, attempt)
}
