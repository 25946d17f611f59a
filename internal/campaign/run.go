package campaign

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"amdgpubench/internal/core"
	"amdgpubench/internal/report"
)

// Campaign metrics, on the suite's shared registry next to the
// core.sweep.* family:
//
//	campaign.figures.planned  — figures in the plan
//	campaign.points.planned   — figure points before dedup
//	campaign.points.deduped   — cross-figure pipeline executions avoided
//	                            (all three DAG levels; Stats.DedupedTotal)
//	campaign.points.fanout    — figure points served by fanning units out
//	campaign.units.planned    — launch units scheduled
//	campaign.units.executed   — units the sweep resolved
//	campaign.units.completed  — executed units that resolved cleanly
//	campaign.units.failed     — executed units that resolved to a
//	                            failure record

// Result is one executed campaign: per-spec figures and fanned-out runs
// (parallel to Plan.Specs), the raw per-unit runs in scheduled order,
// and the accounting.
type Result struct {
	Figures []*report.Figure
	Runs    [][]core.Run
	// UnitRuns[i] is the run for Plan.Units[i], before fan-out — its Card
	// and X are the representative subscriber's.
	UnitRuns []core.Run
	Stats    Stats
	// Executed counts the units this invocation ran: every unit when
	// unsharded, the shard's interleaved slice otherwise. A unit whose
	// result the persist tier already held still runs; only its
	// simulation is served from disk.
	Executed int
	// Shard/Shards record the partition this result covers; 0/1 means
	// the whole campaign.
	Shard, Shards int
}

// Failed counts units that resolved to failure records.
func (r *Result) Failed() int {
	n := 0
	for _, run := range r.UnitRuns {
		if run.Failed() {
			n++
		}
	}
	return n
}

// Run executes the plan on the suite as ONE resilient sweep over the
// deduplicated units, then fans every unit's run back out to its
// subscribing figure points and finishes each spec's figure. A kill
// mid-campaign resumes through the suite's persist tier: re-running the
// campaign against the same PersistDir serves every unit the killed
// invocation finished from disk.
//
// Fan-out copies the unit's run per subscriber, overriding Card and X
// with the subscriber's own coordinates (dedup must not relabel a
// figure's series); failed units fan their failure record out the same
// way, so per-figure failure accounting matches a sequential run. The
// returned error is the sweep's own (fatal pipeline errors, or
// core.ErrSweepInterrupted verbatim so callers can errors.Is on it).
func (p *Plan) Run(s *core.Suite) (*Result, error) {
	return p.runShard(context.Background(), s, 0, 1, nil)
}

// RunCtx is Run bound to a context and an optional progress callback,
// for callers running several campaigns on ONE shared suite — the
// daemon above all. Cancelling ctx interrupts just this campaign's
// sweep (core.ErrSweepInterrupted comes back verbatim), unlike
// Suite.Interrupt which stops every sweep in flight. progress, when
// non-nil, is called from worker goroutines after each executed unit
// resolves, with the cumulative executed and failed unit counts — it
// must be safe for concurrent calls.
func (p *Plan) RunCtx(ctx context.Context, s *core.Suite, progress func(executed, failed int)) (*Result, error) {
	return p.runShard(ctx, s, 0, 1, progress)
}

// RunShard executes one shard of the plan: of the scheduled unit
// sequence, only units with index i%shards == shard run. Shards combine
// through a shared persist tier: run them (concurrently or not) on
// suites with the same PersistDir, and the unsharded run of the same
// plan serves every unit from disk — producing figures byte-identical
// to a run that never sharded. Because one shard holds only a slice of
// every figure's points, RunShard assembles no figures: Result.Figures
// and Result.Runs stay nil.
func (p *Plan) RunShard(s *core.Suite, shard, shards int) (*Result, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("campaign: shard %d/%d out of range", shard, shards)
	}
	return p.runShard(context.Background(), s, shard, shards, nil)
}

func (p *Plan) runShard(ctx context.Context, s *core.Suite, shard, shards int, progress func(executed, failed int)) (*Result, error) {
	m := s.Metrics()
	m.Counter("campaign.figures.planned").Add(int64(p.Stats.Figures))
	m.Counter("campaign.points.planned").Add(int64(p.Stats.Points))
	m.Counter("campaign.points.deduped").Add(int64(p.Stats.DedupedTotal()))
	m.Counter("campaign.units.planned").Add(int64(len(p.Units)))
	unitsExecuted := m.Counter("campaign.units.executed")
	unitsCompleted := m.Counter("campaign.units.completed")
	unitsFailed := m.Counter("campaign.units.failed")
	fanout := m.Counter("campaign.points.fanout")

	root := s.Tracer.Begin("campaign").Cat("campaign").
		Arg("figures", strconv.Itoa(p.Stats.Figures)).
		Arg("points", strconv.Itoa(p.Stats.Points)).
		Arg("units", strconv.Itoa(len(p.Units))).
		Arg("deduped", strconv.Itoa(p.Stats.DedupedTotal()))
	if shards > 1 {
		root.Arg("shard", fmt.Sprintf("%d/%d", shard, shards))
	}
	defer root.End()

	// Every shard builds the FULL unit list so unit indices — hence the
	// interleaved partition — agree across shards.
	kps := make([]core.KernelPoint, len(p.Units))
	for i, u := range p.Units {
		kps[i] = u.Point
	}

	// The observe hook runs on worker goroutines: counters are atomic and
	// the tracer is concurrency-safe, so no extra locking here.
	var executed, failedUnits atomic.Int64
	observe := func(i int) func(core.Run) {
		executed.Add(1)
		unitsExecuted.Inc()
		u := &p.Units[i]
		sp := s.Tracer.Begin("unit").Cat("campaign").
			Arg("kernel", u.Point.K.Name).
			Arg("card", u.Point.Card.Label()).
			Arg("refs", strconv.Itoa(len(u.Refs)))
		return func(run core.Run) {
			if run.Failed() {
				unitsFailed.Inc()
				failedUnits.Add(1)
			} else {
				unitsCompleted.Inc()
			}
			sp.End()
			if progress != nil {
				progress(int(executed.Load()), int(failedUnits.Load()))
			}
		}
	}

	unitRuns, err := s.RunPoints(ctx, kps, observe, shard, shards)
	if err != nil {
		return nil, err
	}

	res := &Result{
		UnitRuns: unitRuns,
		Stats:    p.Stats,
		Executed: int(executed.Load()),
		Shard:    shard,
		Shards:   shards,
	}
	if shards > 1 {
		// A shard holds only a slice of every figure; figures assemble
		// in the follow-up unsharded run, served from the persist tier.
		return res, nil
	}
	for si := range p.Specs {
		spec := p.Specs[si].Figure
		figRuns := make([]core.Run, len(spec.Points))
		for pi, pt := range spec.Points {
			run := unitRuns[p.unitOf[si][pi]]
			run.Card = pt.Card
			run.X = pt.X
			figRuns[pi] = run
		}
		fanout.Add(int64(len(figRuns)))
		spec.FinishInto(figRuns)
		res.Figures = append(res.Figures, spec.Fig)
		res.Runs = append(res.Runs, figRuns)
	}
	return res, nil
}
