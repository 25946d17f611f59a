package campaign

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"amdgpubench/internal/core"
)

// testSuite mirrors the CLI's fast-test configuration: one timing
// iteration and the artifact caches off, so dedup wins in these tests
// come from the scheduler, never from a warm cache.
func testSuite(maxDomain int) *core.Suite {
	s := core.NewSuite()
	s.Iterations = 1
	s.MaxDomain = maxDomain
	s.DisableArtifactCache = true
	return s
}

func mustSpecs(t *testing.T, s *core.Suite, names ...string) []Spec {
	t.Helper()
	specs, err := Specs(s, names)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func mustPlan(t *testing.T, s *core.Suite, opts Options, names ...string) *Plan {
	t.Helper()
	p, err := NewPlan(mustSpecs(t, s, names...), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanInvariants checks the structural soundness of a plan on the
// flagship bundle: every figure point is subscribed to exactly one unit,
// every unit ref points back at it, and the per-level uniques are
// consistent with the dedup accounting.
func TestPlanInvariants(t *testing.T) {
	s := testSuite(0)
	p := mustPlan(t, s, Options{}, "fig7", "fig8", "fig11", "fig16")

	refs := 0
	for ui, u := range p.Units {
		if len(u.Refs) == 0 {
			t.Fatalf("unit %d has no subscribers", ui)
		}
		refs += len(u.Refs)
		for _, r := range u.Refs {
			if p.UnitOf(r.Spec, r.Point) != ui {
				t.Fatalf("unit %d ref %+v does not map back", ui, r)
			}
		}
	}
	if refs != p.Stats.Points {
		t.Fatalf("refs %d != points %d", refs, p.Stats.Points)
	}
	for si, sp := range p.Specs {
		for pi := range sp.Figure.Points {
			ui := p.UnitOf(si, pi)
			found := false
			for _, r := range p.Units[ui].Refs {
				if r.Spec == si && r.Point == pi {
					found = true
				}
			}
			if !found {
				t.Fatalf("point %d/%d not in unit %d refs", si, pi, ui)
			}
		}
	}
	if got := p.Stats.Launch.Unique; got != len(p.Units) {
		t.Fatalf("launch unique %d != units %d", got, len(p.Units))
	}
	// The bundle's cross-figure sharing is at the compile and kernel
	// levels (fig8 = fig7's compute kernels under another block shape),
	// not the launch level — the reason the DAG has three levels at all.
	if p.Stats.Launch.Deduped != 0 {
		t.Fatalf("flagship bundle unexpectedly shares launches: %+v", p.Stats.Launch)
	}
	if p.Stats.Compile.Deduped == 0 || p.Stats.Kernel.Deduped == 0 {
		t.Fatalf("expected compile+kernel dedup, got %+v", p.Stats)
	}
	if p.Stats.DedupedTotal() == 0 {
		t.Fatal("flagship bundle must dedup")
	}
}

// TestPlanLaunchDedup pins the one pair in the default registry that
// shares whole launches: fig16 and clausectl both start at step 0, where
// the control variant's clause reordering is a no-op and the generated
// kernels hash identically.
func TestPlanLaunchDedup(t *testing.T) {
	s := testSuite(0)
	p := mustPlan(t, s, Options{}, "fig16", "clausectl")
	if p.Stats.Launch.Deduped == 0 {
		t.Fatalf("fig16+clausectl should share launch units: %+v", p.Stats)
	}
	if p.Stats.Launch.Unique+p.Stats.Launch.Deduped != p.Stats.Points {
		t.Fatalf("launch accounting inconsistent: %+v", p.Stats)
	}
	shared := 0
	for _, u := range p.Units {
		if len(u.Refs) > 1 {
			shared++
			specs := map[int]bool{}
			for _, r := range u.Refs {
				specs[r.Spec] = true
			}
			if len(specs) != 2 {
				t.Fatalf("shared unit %+v not cross-figure", u.Refs)
			}
		}
	}
	if shared != p.Stats.Launch.Deduped {
		t.Fatalf("shared units %d != launch deduped %d", shared, p.Stats.Launch.Deduped)
	}
}

// TestPlanDeterministic replans the same bundle on fresh suites and
// demands an identical rendered schedule — the property the shard
// partition stands on.
func TestPlanDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		RenderPlan(&b, mustPlan(t, testSuite(0), Options{}, "fig16", "clausectl", "fig11"))
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("replanning the same specs produced a different schedule")
	}
}

// TestPlanMaxDomainClamp clamps a domain-size sweep at plan time: every
// unit respects the cap, collapsed points dedup within the figure, and
// fan-out still serves every original point.
func TestPlanMaxDomainClamp(t *testing.T) {
	s := testSuite(8)
	p := mustPlan(t, s, Options{MaxDomain: 8}, "fig15a")
	for _, u := range p.Units {
		if u.Point.W > 8 || u.Point.H > 8 {
			t.Fatalf("unit domain %dx%d exceeds clamp", u.Point.W, u.Point.H)
		}
	}
	if len(p.Units) >= p.Stats.Points {
		t.Fatalf("clamp should collapse domain points: %d units for %d points", len(p.Units), p.Stats.Points)
	}
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Runs[0]); got != p.Stats.Points {
		t.Fatalf("fan-out served %d of %d points", got, p.Stats.Points)
	}
}

// TestCampaignMatchesSequential is the headline correctness property:
// scheduling fig16+clausectl through the deduped DAG yields figures
// bit-identical to running each alone, with the artifact caches off so
// nothing can hide behind cache hits.
func TestCampaignMatchesSequential(t *testing.T) {
	const clamp = 64
	s := testSuite(clamp)
	p := mustPlan(t, s, Options{MaxDomain: clamp}, "fig16", "clausectl")
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("%d units failed", res.Failed())
	}

	direct16, _, err := testSuite(clamp).Fig16()
	if err != nil {
		t.Fatal(err)
	}
	directCtl, _, err := testSuite(clamp).ClauseControl()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Figures[0].CSV(), direct16.CSV(); got != want {
		t.Errorf("fig16 diverged from sequential run:\ncampaign:\n%s\nsequential:\n%s", got, want)
	}
	if got, want := res.Figures[1].CSV(), directCtl.CSV(); got != want {
		t.Errorf("clausectl diverged from sequential run:\ncampaign:\n%s\nsequential:\n%s", got, want)
	}
	if res.Executed != len(p.Units) {
		t.Fatalf("executed %d of %d units", res.Executed, len(p.Units))
	}
}

// TestCampaignCounters checks the campaign.* metric family against the
// plan's own accounting.
func TestCampaignCounters(t *testing.T) {
	s := testSuite(32)
	p := mustPlan(t, s, Options{MaxDomain: 32}, "fig16", "clausectl")
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	want := map[string]int64{
		"campaign.figures.planned": int64(p.Stats.Figures),
		"campaign.points.planned":  int64(p.Stats.Points),
		"campaign.points.deduped":  int64(p.Stats.DedupedTotal()),
		"campaign.points.fanout":   int64(p.Stats.Points),
		"campaign.units.planned":   int64(len(p.Units)),
		"campaign.units.executed":  int64(res.Executed),
		"campaign.units.completed": int64(res.Executed - res.Failed()),
		"campaign.units.failed":    int64(res.Failed()),
	}
	for name, val := range want {
		if got := snap.Get(name); got != val {
			t.Errorf("%s = %d, want %d", name, got, val)
		}
	}
	if snap.Get("campaign.points.deduped") == 0 {
		t.Error("fig16+clausectl campaign should report dedup")
	}
}

// TestCampaignCheckpointResume kills a campaign mid-flight and resumes
// it over the same persist directory: the resumed invocation must serve
// exactly the units the killed one finished from disk, compute only the
// rest, and still produce sequential-identical figures.
func TestCampaignCheckpointResume(t *testing.T) {
	const clamp = 64
	dir := t.TempDir()

	// The persist tier sits under the artifact caches, which testSuite
	// turns off; the campaign's resume needs them on.
	victim := testSuite(clamp)
	victim.Workers = 2
	victim.DisableArtifactCache = false
	victim.PersistDir = dir
	var launches atomic.Int64
	victim.BeforeLaunch = func() {
		if launches.Add(1) == 6 {
			victim.Interrupt()
		}
	}
	vp := mustPlan(t, victim, Options{MaxDomain: clamp}, "fig16", "clausectl")
	if _, err := vp.Run(victim); !errors.Is(err, core.ErrSweepInterrupted) {
		t.Fatalf("victim campaign: got %v, want ErrSweepInterrupted", err)
	}
	finished := victim.Metrics().Snapshot().Get("pipeline.persist.writes")
	if finished == 0 {
		t.Fatal("the killed campaign persisted nothing")
	}

	resumed := testSuite(clamp)
	resumed.DisableArtifactCache = false
	resumed.PersistDir = dir
	rp := mustPlan(t, resumed, Options{MaxDomain: clamp}, "fig16", "clausectl")
	res, err := rp.Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	snap := resumed.Metrics().Snapshot()
	hits, misses := snap.Get("pipeline.persist.hits"), snap.Get("pipeline.persist.misses")
	if hits != finished || misses == 0 || misses != snap.Get("pipeline.persist.writes") {
		t.Fatalf("resume served %d and computed %d units (wrote %d), want %d served and the rest computed once",
			hits, misses, snap.Get("pipeline.persist.writes"), finished)
	}
	if res.Executed != len(rp.Units) {
		t.Fatalf("resume resolved %d of %d units", res.Executed, len(rp.Units))
	}

	direct16, _, err := testSuite(clamp).Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if res.Figures[0].CSV() != direct16.CSV() {
		t.Error("resumed campaign fig16 diverged from sequential run")
	}
}

// TestCampaignInterruptPropagates pins the error identity contract.
func TestCampaignInterruptPropagates(t *testing.T) {
	s := testSuite(32)
	s.Workers = 1
	var launches atomic.Int64
	s.BeforeLaunch = func() {
		if launches.Add(1) == 2 {
			s.Interrupt()
		}
	}
	p := mustPlan(t, s, Options{MaxDomain: 32}, "fig16")
	_, err := p.Run(s)
	if !errors.Is(err, core.ErrSweepInterrupted) {
		t.Fatalf("got %v, want core.ErrSweepInterrupted", err)
	}
}

// TestSpecsRejectsBadNames pins the registry's error behavior.
func TestSpecsRejectsBadNames(t *testing.T) {
	s := testSuite(0)
	if _, err := Specs(s, []string{"fig99"}); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("unknown name: got %v", err)
	}
	if _, err := Specs(s, []string{"fig7", "fig7"}); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("duplicate name: got %v", err)
	}
}

// TestFigureNamesCoverRegistry keeps the advertised name list in sync.
func TestFigureNamesCoverRegistry(t *testing.T) {
	names := FigureNames()
	if len(names) != len(builders) {
		t.Fatalf("FigureNames lists %d of %d builders", len(names), len(builders))
	}
	s := testSuite(16)
	for _, n := range names {
		if _, err := Specs(s, []string{n}); err != nil {
			t.Errorf("registry name %q does not plan: %v", n, err)
		}
	}
}
