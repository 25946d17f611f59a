package main

import (
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/sim"
)

// request is one campaign request as a client would send it.
type request struct {
	Figs      []string
	Archs     []string
	MaxDomain int
}

func (r request) campaign() campaign.Request {
	return campaign.Request{Figs: r.Figs, Archs: r.Archs, MaxDomain: r.MaxDomain}
}

// key identifies a distinct request.
func (r request) key() string {
	return fmt.Sprintf("%s|%s|%d", strings.Join(r.Figs, ","), strings.Join(r.Archs, ","), r.MaxDomain)
}

// newSuite is a suite as every workload configures it: one timing
// iteration, so CSVs compare with the committed goldens.
func newSuite(workers int) *core.Suite {
	s := core.NewSuite()
	s.Iterations = 1
	s.Workers = workers
	return s
}

// filterArchs keeps each figure's points on the named architectures, as
// a daemon job filters them. The one-worker run's CSVs are checked
// against the daemon's own, so a difference from its filter shows.
func filterArchs(specs []campaign.Spec, names []string) ([]campaign.Spec, error) {
	if len(names) == 0 {
		return specs, nil
	}
	keep := make(map[device.Arch]bool, len(names))
	for _, n := range names {
		found := false
		for _, spec := range device.All() {
			if strings.EqualFold(n, spec.Arch.String()) {
				keep[spec.Arch] = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown arch %q", n)
		}
	}
	out := make([]campaign.Spec, len(specs))
	for i, sp := range specs {
		kept := sp.Figure.Points[:0:0]
		for _, pt := range sp.Figure.Points {
			if keep[pt.Card.Arch] {
				kept = append(kept, pt)
			}
		}
		sp.Figure.Points = kept
		out[i] = sp
	}
	return out, nil
}

// plan builds a request's campaign plan on s.
func plan(s *core.Suite, r request) (*campaign.Plan, error) {
	specs, err := campaign.Specs(s, r.Figs)
	if err != nil {
		return nil, err
	}
	if specs, err = filterArchs(specs, r.Archs); err != nil {
		return nil, err
	}
	return campaign.NewPlan(specs, campaign.Options{MaxDomain: r.MaxDomain})
}

// untracedRun runs the requests one after another through the suite's
// own campaign path, timing the whole. The CSVs, rendered after the
// clock stops, come back per request, per figure.
func untracedRun(s *core.Suite, reqs []request) (wall time.Duration, unitRuns [][]core.Run, csvs [][]string, err error) {
	var results []*campaign.Result
	start := time.Now()
	for _, r := range reqs {
		p, err := plan(s, r)
		if err != nil {
			return 0, nil, nil, err
		}
		res, err := p.Run(s)
		if err != nil {
			return 0, nil, nil, err
		}
		results = append(results, res)
	}
	wall = time.Since(start)
	for _, res := range results {
		figs := make([]string, len(res.Figures))
		for i, f := range res.Figures {
			figs[i] = f.CSV()
		}
		unitRuns = append(unitRuns, res.UnitRuns)
		csvs = append(csvs, figs)
	}
	return wall, unitRuns, csvs, nil
}

// layerRun is one traced run's account. Each duration is a layer's self
// time: the layers are called one after another, never nested, so a
// span's duration is its self time.
type layerRun struct {
	wall time.Duration

	kerngen  time.Duration // campaign.Specs, which generates every kernel
	plan     time.Duration // arch filter and campaign.NewPlan
	compile  time.Duration // Pipeline.Compile
	trace    time.Duration // Pipeline.Trace
	replay   time.Duration // Pipeline.Replay
	simulate time.Duration // Pipeline.Simulate

	compileBytes, replayBytes, simBytes uint64

	compiles, ilInstrs int    // compile-store misses: kernels ilc compiled
	replays, accesses  int    // replay-store misses and the accesses they replayed
	launches           int    // sim.Run executions (results not served from a store or disk)
	cycles             uint64 // simulated cycles over every unit
	units, deduped     int
}

func (l layerRun) selfSum() time.Duration {
	return l.kerngen + l.plan + l.compile + l.trace + l.replay + l.simulate
}

// traced runs the requests one after another on s with one worker,
// calling each layer's public function itself in the order a launch
// does (compile, trace, replay, simulate) and timing each call. The
// per-unit runs it returns must equal the untraced run's.
//
// The simulate step goes through Pipeline.Simulate, as a launch does,
// so results the suite's stores or persist tier hold are served as they
// would be. Inside it the trace is derived again and the replay is a
// store hit; both are counted in the simulate time.
func traced(s *core.Suite, reqs []request) ([][]core.Run, layerRun, error) {
	var l layerRun
	pipe := s.Pipeline()
	reg := s.Metrics()
	compileMisses := reg.Counter("pipeline.compile.misses")
	replayMisses := reg.Counter("pipeline.replay.misses")
	simMisses := reg.Counter("pipeline.simulate.misses")
	persistHits := reg.Counter("pipeline.persist.hits")

	var all [][]core.Run
	start := time.Now()
	for _, r := range reqs {
		t := time.Now()
		specs, err := campaign.Specs(s, r.Figs)
		l.kerngen += time.Since(t)
		if err != nil {
			return nil, l, err
		}
		t = time.Now()
		specs, err = filterArchs(specs, r.Archs)
		if err != nil {
			return nil, l, err
		}
		p, err := campaign.NewPlan(specs, campaign.Options{MaxDomain: r.MaxDomain})
		l.plan += time.Since(t)
		if err != nil {
			return nil, l, err
		}
		l.units += len(p.Units)
		l.deduped += p.Stats.DedupedTotal()

		runs := make([]core.Run, len(p.Units))
		for i, u := range p.Units {
			spec := device.Lookup(u.Point.Card.Arch)
			order, err := u.Point.Card.Order()
			if err != nil {
				return nil, l, err
			}

			misses, a := compileMisses.Load(), heapAllocs()
			t = time.Now()
			prog, err := pipe.Compile(u.Point.K, spec, ilc.Options{})
			l.compile += time.Since(t)
			l.compileBytes += heapAllocs() - a
			if err != nil {
				return nil, l, err
			}
			if compileMisses.Load() > misses {
				l.compiles++
				l.ilInstrs += len(u.Point.K.Code)
			}

			cfg := sim.Config{
				Spec: spec, Prog: prog, Order: order,
				W: u.Point.W, H: u.Point.H,
				Iterations: s.Iterations, Watchdog: s.DeadlineCycles,
			}
			t = time.Now()
			tc, fetches := pipe.Trace(cfg)
			l.trace += time.Since(t)
			if fetches {
				misses, a = replayMisses.Load(), heapAllocs()
				t = time.Now()
				st, err := pipe.Replay(tc)
				l.replay += time.Since(t)
				l.replayBytes += heapAllocs() - a
				if err != nil {
					return nil, l, err
				}
				if replayMisses.Load() > misses {
					l.replays++
					l.accesses += st.Accesses
				}
			}

			misses, hits, a := simMisses.Load(), persistHits.Load(), heapAllocs()
			t = time.Now()
			res, err := pipe.Simulate(cfg)
			l.simulate += time.Since(t)
			l.simBytes += heapAllocs() - a
			if err != nil {
				return nil, l, err
			}
			l.launches += int((simMisses.Load() - misses) - (persistHits.Load() - hits))
			l.cycles += res.Cycles
			runs[i] = core.Run{
				Card:       u.Point.Card,
				Seconds:    res.Seconds,
				GPRs:       res.GPRs,
				Waves:      res.WavesPerSIMD,
				HitRate:    res.HitRate,
				Bottleneck: res.Bottleneck.String(),
			}
		}
		all = append(all, runs)
	}
	l.wall = time.Since(start)
	return all, l, nil
}

// sameRuns reports the first unit whose traced result differs from the
// untraced run's, comparing every field a figure is built from.
func sameRuns(traced, untraced [][]core.Run) error {
	if len(traced) != len(untraced) {
		return fmt.Errorf("%d traced requests, %d untraced", len(traced), len(untraced))
	}
	for r := range traced {
		if len(traced[r]) != len(untraced[r]) {
			return fmt.Errorf("request %d: %d traced units, %d untraced", r, len(traced[r]), len(untraced[r]))
		}
		for i, a := range traced[r] {
			b := untraced[r][i]
			if a.Seconds != b.Seconds || a.GPRs != b.GPRs || a.Waves != b.Waves ||
				a.HitRate != b.HitRate || a.Bottleneck != b.Bottleneck || b.Failed() {
				return fmt.Errorf("request %d unit %d (%s): traced %+v, untraced %+v", r, i, a.Card.Label(), a, b)
			}
		}
	}
	return nil
}

// layerValues turns one traced run, and the untraced one-worker run of
// the same requests, into the per-layer metrics both can give.
func layerValues(l layerRun, untracedWall time.Duration) map[string]float64 {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	return map[string]float64{
		"ilc.self_ms":         ms(l.compile),
		"ilc.calls":           float64(l.compiles),
		"ilc.ns_per_il_instr": ratio(float64(l.compile.Nanoseconds()), float64(l.ilInstrs)),
		"ilc.alloc_mb":        mb(l.compileBytes),
		"cache.self_ms":       ms(l.replay),
		"cache.replays":       float64(l.replays),
		"cache.accesses":      float64(l.accesses),
		"cache.ns_per_access": ratio(float64(l.replay.Nanoseconds()), float64(l.accesses)),
		"cache.alloc_mb":      mb(l.replayBytes),
		"sim.self_ms":         ms(l.simulate),
		"sim.launches":        float64(l.launches),
		"sim.us_per_launch":   ratio(float64(l.simulate.Nanoseconds())/1e3, float64(l.launches)),
		"sim.kcycles":         float64(l.cycles) / 1e3,
		"sim.alloc_mb":        mb(l.simBytes),
		"sim.trace_ms":        ms(l.trace),
		"kerngen.self_ms":     ms(l.kerngen),
		"campaign.plan_ms":    ms(l.plan),
		"campaign.units":      float64(l.units),
		"campaign.deduped":    float64(l.deduped),
		"core.overhead_ms":    ms(untracedWall - l.selfSum()),
		"traced.coverage":     ratio(float64(l.selfSum()), float64(l.wall)),
		"traced.overhead_ms":  ms(l.wall - untracedWall),
	}
}

// heapAllocs is the bytes allocated on the heap since the process
// started.
func heapAllocs() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// hitRates reads the pipeline's store counters: each store's hits and
// coalesced waits over its lookups, and the persist tier's counts.
func hitRates(get func(name string) int64) map[string]float64 {
	rate := func(stage string) float64 {
		hits := get("pipeline."+stage+".hits") + get("pipeline."+stage+".coalesced")
		return ratio(float64(hits), float64(hits+get("pipeline."+stage+".misses")))
	}
	return map[string]float64{
		"pipeline.compile.hit_rate":       rate("compile"),
		"pipeline.replay.hit_rate":        rate("replay"),
		"pipeline.replay_prefix.hit_rate": rate("replay-prefix"),
		"pipeline.simulate.hit_rate":      rate("simulate"),
		"pipeline.persist.hits":           float64(get("pipeline.persist.hits")),
		"pipeline.persist.writes":         float64(get("pipeline.persist.writes")),
	}
}
