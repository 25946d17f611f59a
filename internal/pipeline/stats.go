package pipeline

import "time"

// StageStats are one stage's artifact-cache counters.
type StageStats struct {
	Stage string
	// Hits served an artifact from the store; Misses computed one;
	// Coalesced waited on a concurrent computation of the same key
	// (singleflight) instead of recomputing it.
	Hits, Misses, Coalesced uint64
	// Bypassed counts computations that skipped the store entirely —
	// fault-injected launches and artifacts with no content address.
	Bypassed uint64
	// Evictions counts LRU evictions; Entries is current residency.
	Evictions uint64
	Entries   int
	// ComputeTime is cumulative wall-clock time spent computing misses
	// and bypasses (hits cost none of it).
	ComputeTime time.Duration
}

// HitRate returns the fraction of non-bypassed requests served without
// computing: hits plus coalesced waits over all requests.
func (s StageStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Stats is a snapshot of the whole pipeline's counters, one entry per
// stage in execution order: generate, compile, trace, replay, simulate.
type Stats struct {
	Enabled bool
	Stages  []StageStats
}

// Stage returns the named stage's counters.
func (st Stats) Stage(name string) StageStats {
	for _, s := range st.Stages {
		if s.Stage == name {
			return s
		}
	}
	return StageStats{Stage: name}
}
