// Package pipeline decomposes the launch path into an explicit staged
// pipeline with content-addressed artifact caching. A timed kernel launch
// is five stages, each producing an immutable, hashable artifact:
//
//	Generate (kerngen)  parameters        -> IL kernel
//	Compile  (ilc)      IL text + device  -> ISA program
//	Trace    (raster)   program + domain  -> fetch-trace signature
//	Replay   (cache)    trace signature   -> cache replay statistics
//	Simulate (sim)      program + replay  -> timing result
//
// Generate, Compile, Replay and Simulate artifacts are memoized in
// bounded LRU stores keyed by content: compile artifacts by the kernel's
// structural hash (the SHA-256 of its canonical binary encoding — no
// text round-trip) plus the device architecture, its clause
// limits and the compiler options; replay artifacts by the fetch
// signature of the ISA program, the raster order, the domain and the
// cache geometry (plus cache-relevant ablations). Each store coalesces
// concurrent computations of the same key (singleflight), so a worker
// pool sweeping hundreds of points never computes the same artifact
// twice at the same time. Every stage carries hit/miss/latency counters,
// surfaced through Stats and `amdmb -metrics`.
//
// Because every stage is a pure function of its key, serving an artifact
// from the store is bit-identical to recomputing it: figures produced
// with caching enabled match the cache-disabled, single-worker run
// exactly (internal/core's determinism tests prove it).
//
// Fault injection bypasses the Simulate store in both directions: a
// launch struck by a throttle or hang fault is computed outside the
// store and its result is never cached, so a degraded run can neither be
// served from cache nor poison it. Compile and Replay artifacts are
// fault-independent (faults perturb timing and data, never the compiled
// program or its address trace) and stay shared.
package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"amdgpubench/internal/cache"
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/isa"
	"amdgpubench/internal/kerngen"
	"amdgpubench/internal/obs"
	"amdgpubench/internal/raster"
	"amdgpubench/internal/sim"
)

// Options sizes the pipeline's artifact stores. Zero fields take the
// defaults below.
type Options struct {
	// Disabled turns memoization off: every stage recomputes every
	// artifact. Results are bit-identical either way; the flag exists
	// for baselines and cache-vs-recompute benchmarks.
	Disabled bool
	// Entry bounds per LRU store.
	GenerateEntries int
	CompileEntries  int
	ReplayEntries   int
	SimulateEntries int
	// ReplaySnapshotEntries bounds the replay prefix-snapshot store: the
	// deepest resumable replay cursor per trace-prefix family, cloned to
	// seed later points of a dense input sweep. Each entry holds three
	// cloned cache models (the L2's tag array dominates, ~64KB on RV770),
	// so the default of 64 caps snapshot state at a few MB.
	ReplaySnapshotEntries int
	// Metrics is the registry the per-stage counters, gauges and latency
	// histograms register into; nil gets the pipeline its own registry,
	// so counters (and Stats) always work.
	Metrics *obs.Registry
	// PersistDir, when non-empty, attaches the persistent on-disk tier
	// under the Simulate store (see persist.go): results missing in
	// memory load from <PersistDir>/simulate before computing, and
	// computed results write through crash-atomically. Disabled turns
	// the tier off along with everything else.
	PersistDir string
}

const (
	defaultGenerateEntries       = 4096
	defaultCompileEntries        = 4096
	defaultReplayEntries         = 1024
	defaultSimulateEntries       = 8192
	defaultReplaySnapshotEntries = 64
)

// Pipeline stages launches and memoizes their artifacts. It is safe for
// concurrent use; cal contexts and core suites are its clients.
type Pipeline struct {
	disabled bool
	metrics  *obs.Registry

	generate *store[generateKey, *il.Kernel]
	compile  *store[compileKey, *isa.Program]
	replay   *store[replayKey, cache.TraceStats]
	simulate *store[simulateKey, sim.Result]

	// snapshots resumes replays incrementally: per trace-prefix family it
	// keeps the deepest replay cursor, so adjacent points of an
	// input-count sweep replay only their delta (see snapshot.go).
	snapshots *snapshotStore

	// progHash content-addresses compiled programs by identity: Compile
	// stores each artifact's key hash under its pointer so Simulate can
	// key results without re-hashing the program. Entries die with their
	// program's eviction from the compile store.
	progHash sync.Map // *isa.Program -> [32]byte

	// The Trace stage is a pure derivation with nothing worth storing;
	// it keeps plain counters. simBypassed counts Simulate computations
	// that skipped the store (fault-injected or unhashable programs).
	traceCount  *obs.Counter
	traceNS     *obs.Counter
	simBypassed *obs.Counter
	simBypassNS *obs.Counter
}

// New builds a pipeline with the given store bounds.
func New(opts Options) *Pipeline {
	if opts.GenerateEntries <= 0 {
		opts.GenerateEntries = defaultGenerateEntries
	}
	if opts.CompileEntries <= 0 {
		opts.CompileEntries = defaultCompileEntries
	}
	if opts.ReplayEntries <= 0 {
		opts.ReplayEntries = defaultReplayEntries
	}
	if opts.SimulateEntries <= 0 {
		opts.SimulateEntries = defaultSimulateEntries
	}
	if opts.ReplaySnapshotEntries <= 0 {
		opts.ReplaySnapshotEntries = defaultReplaySnapshotEntries
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Pipeline{
		disabled:    opts.Disabled,
		metrics:     reg,
		traceCount:  reg.Counter("pipeline.trace.derivations"),
		traceNS:     reg.Counter("pipeline.trace.compute_ns"),
		simBypassed: reg.Counter("pipeline.simulate.bypassed"),
		simBypassNS: reg.Counter("pipeline.simulate.bypass_ns"),
	}
	p.generate = newStore[generateKey, *il.Kernel]("generate", reg, opts.GenerateEntries, opts.Disabled, nil)
	p.compile = newStore[compileKey, *isa.Program]("compile", reg, opts.CompileEntries, opts.Disabled, func(_ compileKey, prog *isa.Program) {
		p.progHash.Delete(prog)
	})
	p.replay = newStore[replayKey, cache.TraceStats]("replay", reg, opts.ReplayEntries, opts.Disabled, nil)
	p.snapshots = newSnapshotStore(reg, opts.ReplaySnapshotEntries)
	p.simulate = newStore[simulateKey, sim.Result]("simulate", reg, opts.SimulateEntries, opts.Disabled, nil)
	if opts.PersistDir != "" && !opts.Disabled {
		t := newPersistTier(opts.PersistDir, reg)
		p.simulate.tierLoad = t.load
		p.simulate.tierStore = t.store
	}
	return p
}

// Enabled reports whether memoization is on.
func (p *Pipeline) Enabled() bool { return !p.disabled }

// Metrics returns the registry the pipeline's counters live in — the
// one `-metrics` dumps. Clients (cal contexts, the sweep runner)
// register their own counters into it so one snapshot covers the whole
// launch path.
func (p *Pipeline) Metrics() *obs.Registry { return p.metrics }

// ---- Stage 1: Generate ----

// Generator names a kerngen kernel generator; with its Params it is the
// Generate stage's content address.
type Generator int

const (
	GenGeneric Generator = iota
	GenALUFetch
	GenReadLatency
	GenWriteLatency
	GenDomain
	GenRegisterUsage
	GenClauseUsage
)

// String names the generator.
func (g Generator) String() string {
	switch g {
	case GenGeneric:
		return "generic"
	case GenALUFetch:
		return "alufetch"
	case GenReadLatency:
		return "readlatency"
	case GenWriteLatency:
		return "writelatency"
	case GenDomain:
		return "domain"
	case GenRegisterUsage:
		return "registerusage"
	case GenClauseUsage:
		return "clauseusage"
	}
	return "?"
}

func (g Generator) fn() (func(kerngen.Params) (*il.Kernel, error), error) {
	switch g {
	case GenGeneric:
		return kerngen.Generic, nil
	case GenALUFetch:
		return kerngen.ALUFetch, nil
	case GenReadLatency:
		return kerngen.ReadLatency, nil
	case GenWriteLatency:
		return kerngen.WriteLatency, nil
	case GenDomain:
		return kerngen.Domain, nil
	case GenRegisterUsage:
		return kerngen.RegisterUsage, nil
	case GenClauseUsage:
		return kerngen.ClauseUsage, nil
	}
	return nil, fmt.Errorf("pipeline: unknown generator %d", int(g))
}

type generateKey struct {
	gen    Generator
	params kerngen.Params
}

// Generate runs the named kerngen generator, memoized on (generator,
// params). The returned kernel is shared and must be treated as
// immutable.
func (p *Pipeline) Generate(g Generator, params kerngen.Params) (*il.Kernel, error) {
	fn, err := g.fn()
	if err != nil {
		return nil, err
	}
	return p.generate.get(generateKey{gen: g, params: params}, func() (*il.Kernel, error) {
		return fn(params)
	})
}

// ---- Stage 2: Compile ----

// compileKey is the content address of a compiled program: the kernel's
// structural hash (il.Kernel.Hash — the SHA-256 of its canonical binary
// encoding, no text serialization), the device architecture, the spec
// fields the compiler actually reads (clause limits, compute support),
// and the compiler options. Unrelated spec differences — clocks, cache
// sizes — do not fragment the store.
type compileKey struct {
	kernelHash      [sha256.Size]byte
	arch            device.Arch
	supportsCompute bool
	maxFetchesTEX   int
	maxSlotsALU     int
	opts            ilc.Options
}

// hash folds the whole key into one digest — the program's content
// address, reused by the Simulate stage. Every non-hash field is packed
// into a fixed-width binary trailer with explicit writes; nothing here
// goes through reflection or text formatting.
func (k compileKey) hash() [sha256.Size]byte {
	var buf [sha256.Size + 3*8 + 3]byte
	copy(buf[:], k.kernelHash[:])
	le := binary.LittleEndian
	le.PutUint64(buf[sha256.Size:], uint64(k.arch))
	le.PutUint64(buf[sha256.Size+8:], uint64(int64(k.maxFetchesTEX)))
	le.PutUint64(buf[sha256.Size+16:], uint64(int64(k.maxSlotsALU)))
	buf[sha256.Size+24] = boolByte(k.supportsCompute)
	buf[sha256.Size+25] = boolByte(k.opts.NoPVForwarding)
	buf[sha256.Size+26] = boolByte(k.opts.NoClauseTemps)
	return sha256.Sum256(buf[:])
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Compile lowers an IL kernel for a device, memoized on the kernel's
// structural hash plus the compile-relevant device parameters and
// options. The returned program is shared and immutable. A store hit does
// zero serialization work: the key is built from the kernel's binary
// encoding without ever rendering IL text.
func (p *Pipeline) Compile(k *il.Kernel, spec device.Spec, opts ilc.Options) (*isa.Program, error) {
	key := compileKey{
		kernelHash:      k.Hash(),
		arch:            spec.Arch,
		supportsCompute: spec.SupportsCompute,
		maxFetchesTEX:   spec.MaxFetchesPerTEXClause,
		maxSlotsALU:     spec.MaxSlotsPerALUClause,
		opts:            opts,
	}
	prog, err := p.compile.get(key, func() (*isa.Program, error) {
		return ilc.CompileWith(k, spec, opts)
	})
	if err != nil {
		return nil, err
	}
	if !p.disabled {
		// Loading before storing keeps the hot (hit) path free of the
		// interface boxing sync.Map.Store would do on every launch.
		if _, ok := p.progHash.Load(prog); !ok {
			p.progHash.Store(prog, key.hash())
		}
	}
	return prog, nil
}

// ---- Stage 3: Trace ----

// Trace derives the fetch-trace signature of a simulation config — the
// replay stage's input. ok is false when the program fetches nothing
// through the texture cache.
func (p *Pipeline) Trace(cfg sim.Config) (cache.TraceConfig, bool) {
	start := time.Now()
	tc, ok := sim.TraceConfigFor(cfg)
	p.traceNS.Add(time.Since(start).Nanoseconds())
	p.traceCount.Add(1)
	return tc, ok
}

// ---- Stage 4: Replay ----

// replayKey is the content address of a cache replay: the fetch
// signature and domain walk plus the cache geometry the replay touches.
type replayKey struct {
	order         raster.Order
	w, h          int
	elemBytes     int
	numInputs     int
	residentWaves int
	firstWave     int
	linear        bool
	// Cache geometry: L1 and L2 shape plus the TEX-clause grouping that
	// sets the replay's interleave.
	l1Bytes, l1Line, l1Ways int
	l2Bytes, l2Ways         int
	maxFetchesTEX           int
	// fetchSeq digests a non-identity fetch schedule (cache.TraceConfig.
	// FetchRes): hierarchy-dissection kernels that revisit surfaces get
	// their own replay identity — and their own prefix-snapshot family —
	// per schedule. Zero for the identity schedule, so every pre-existing
	// replay key is unchanged.
	fetchSeq [sha256.Size]byte
}

func replayKeyFor(tc cache.TraceConfig) replayKey {
	k := replayKey{
		order:         tc.Order,
		w:             tc.W,
		h:             tc.H,
		elemBytes:     tc.ElemBytes,
		numInputs:     tc.NumInputs,
		residentWaves: tc.ResidentWaves,
		firstWave:     tc.FirstWave,
		linear:        tc.LinearLayout,
		l1Bytes:       tc.Spec.L1CacheBytes,
		l1Line:        tc.Spec.L1LineBytes,
		l1Ways:        tc.Spec.L1Ways,
		l2Bytes:       tc.Spec.L2CacheBytes,
		l2Ways:        tc.Spec.L2Ways,
		maxFetchesTEX: tc.Spec.MaxFetchesPerTEXClause,
	}
	if tc.FetchRes != nil {
		h := sha256.New()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(len(tc.FetchRes)))
		h.Write(buf[:])
		for _, surf := range tc.FetchRes {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(surf)))
			h.Write(buf[:])
		}
		h.Sum(k.fetchSeq[:0])
	}
	return k
}

// Replay runs the trace through the cache model, memoized on the fetch
// signature, raster order, domain and cache geometry. Kernels that share
// a fetch trace — the whole ALU:Fetch ratio sweep of Fig. 7, say, where
// only the ALU op count varies — share one replay artifact. Misses
// compute incrementally: a dense input-count sweep resumes the family's
// prefix snapshot and replays only the delta (see snapshot.go), which is
// bit-identical to a cold replay because the N-input stream is a strict
// prefix of the N+1-input stream.
func (p *Pipeline) Replay(tc cache.TraceConfig) (cache.TraceStats, error) {
	return p.replay.get(replayKeyFor(tc), func() (cache.TraceStats, error) {
		return p.replayIncremental(tc)
	})
}

// ---- Stage 5: Simulate ----

// simulateKey content-addresses a timing result: the program's content
// hash plus everything else the simulator reads. The full device spec
// participates because timing depends on nearly all of it.
type simulateKey struct {
	progHash   [sha256.Size]byte
	spec       device.Spec
	order      raster.Order
	w, h       int
	iterations int
	ablate     sim.Ablations
	watchdog   uint64
}

// Simulate times a compiled kernel, routing the replay stage through the
// artifact stores and memoizing the final result. Fault-injected
// configurations — a hang or a throttled clock — bypass the result
// store entirely: they are recomputed every time and never cached, so a
// degraded run can neither be served stale nor poison later launches.
// Programs that did not come out of this pipeline's Compile stage have
// no content address and also bypass the result store (their replay
// stage still memoizes).
func (p *Pipeline) Simulate(cfg sim.Config) (sim.Result, error) {
	return p.SimulateSpan(obs.Span{}, cfg)
}

// SimulateSpan is Simulate with a parent span: each stage the launch
// passes through — trace, replay, the simulator run — records a child
// span on the launch's track, which is how `amdmb -trace` shows a sweep
// as per-launch lanes of nested stage spans. The zero Span traces
// nothing and costs nothing.
func (p *Pipeline) SimulateSpan(sp obs.Span, cfg sim.Config) (sim.Result, error) {
	// Trace + Replay: serve the cache statistics from the artifact store
	// so the simulator skips the trace-driven replay.
	tsp := sp.Child("trace").Cat("stage")
	tc, ok := p.Trace(cfg)
	tsp.End()
	if ok {
		rsp := sp.Child("replay").Cat("stage")
		st, err := p.Replay(tc)
		rsp.End()
		if err != nil {
			return sim.Result{}, err
		}
		cfg.Trace = &st
	}

	faulted := cfg.Hang != nil || (cfg.ClockFactor != 0 && cfg.ClockFactor != 1)
	hash, addressed := p.hashOf(cfg.Prog)
	if p.disabled || faulted || !addressed {
		xsp := sp.Child("simulate").Cat("stage")
		start := time.Now()
		res, err := sim.Run(cfg)
		p.simBypassNS.Add(time.Since(start).Nanoseconds())
		p.simBypassed.Add(1)
		xsp.End()
		return res, err
	}

	key := simulateKey{
		progHash:   hash,
		spec:       cfg.Spec,
		order:      cfg.Order,
		w:          cfg.W,
		h:          cfg.H,
		iterations: cfg.Iterations,
		ablate:     cfg.Ablate,
		watchdog:   cfg.Watchdog,
	}
	xsp := sp.Child("simulate").Cat("stage")
	res, err := p.simulate.get(key, func() (sim.Result, error) {
		return sim.Run(cfg)
	})
	xsp.End()
	return res, err
}

// hashOf returns the content address Compile recorded for prog.
func (p *Pipeline) hashOf(prog *isa.Program) ([sha256.Size]byte, bool) {
	if prog == nil {
		return [sha256.Size]byte{}, false
	}
	v, ok := p.progHash.Load(prog)
	if !ok {
		return [sha256.Size]byte{}, false
	}
	return v.([sha256.Size]byte), true
}

// Stats snapshots every stage's counters.
func (p *Pipeline) Stats() Stats {
	simStats := p.simulate.stats("simulate")
	simStats.Bypassed = uint64(p.simBypassed.Load())
	simStats.ComputeTime += time.Duration(p.simBypassNS.Load())
	return Stats{
		Enabled: !p.disabled,
		Stages: []StageStats{
			p.generate.stats("generate"),
			p.compile.stats("compile"),
			{
				Stage:       "trace",
				Misses:      uint64(p.traceCount.Load()),
				ComputeTime: time.Duration(p.traceNS.Load()),
			},
			p.replay.stats("replay"),
			p.snapshots.stats(),
			simStats,
		},
	}
}
