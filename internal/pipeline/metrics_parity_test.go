package pipeline

import (
	"testing"
)

// TestStatsAgreeWithMetricsSnapshot is the single-source-of-truth check:
// Stats() (read by the progress line and the soak metrics oracle) and the
// metrics registry (behind `amdmb -metrics`) must report the same numbers, because they read the
// same counters. Any drift means a stage updated one but not the other.
func TestStatsAgreeWithMetricsSnapshot(t *testing.T) {
	p := New(Options{})
	cfg := testSimConfig(t, p, testParams())
	for i := 0; i < 3; i++ {
		if _, err := p.Simulate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// A second params set so generate/compile record both hits and misses.
	pb := testParams()
	pb.Inputs = 6
	cfgB := testSimConfig(t, p, pb)
	if _, err := p.Simulate(cfgB); err != nil {
		t.Fatal(err)
	}

	st := p.Stats()
	snap := p.Metrics().Snapshot()
	for _, stage := range st.Stages {
		if stage.Stage == "trace" {
			// The trace stage is derivation-counter-backed, not a store.
			if got := uint64(snap.Get("pipeline.trace.derivations")); got != stage.Misses {
				t.Errorf("trace derivations: stats %d, metrics %d", stage.Misses, got)
			}
			continue
		}
		prefix := "pipeline." + stage.Stage + "."
		checks := []struct {
			name string
			want uint64
		}{
			{"hits", stage.Hits},
			{"misses", stage.Misses},
			{"coalesced", stage.Coalesced},
			{"evictions", stage.Evictions},
		}
		for _, c := range checks {
			if got := uint64(snap.Get(prefix + c.name)); got != c.want {
				t.Errorf("%s%s: stats reports %d, metrics reports %d", prefix, c.name, c.want, got)
			}
		}
		if stage.Stage == "simulate" {
			continue // bypass time is folded into ComputeTime; checked below
		}
		if got := snap.Get(prefix + "compute_ns"); got != stage.ComputeTime.Nanoseconds() {
			t.Errorf("%scompute_ns: stats %d, metrics %d", prefix, stage.ComputeTime.Nanoseconds(), got)
		}
	}
	if st.Stage("simulate").Misses == 0 || st.Stage("simulate").Hits == 0 {
		t.Error("test exercised no simulate hits+misses; parity check is vacuous")
	}
}
