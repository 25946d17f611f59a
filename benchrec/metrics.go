package main

import (
	"fmt"
	"math"
	"regexp"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units; the self-tests hold the two together.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the suite sees, printed by every
// untraced run (--trace 0) on every workload. Failures are not a metric
// here: the result line's attempted and failed fields carry them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s_p50", "s"},
	{"job_s_p50", "s"},
	{"job_s_p90", "s"},
	{"jobs_per_s", "1/s"},
	{"cpu_ms_per_unit", "ms"},
	{"alloc_kb_per_unit", "KB"},
	{"retained_mb", "MB"},
}

// perLayer are the single-layer metrics, printed by every traced run
// (--trace 1) on every workload. README.md gives each one's layer and
// the end-to-end metric it should move.
var perLayer = []metricDef{
	{"ilc.self_ms", "ms"},
	{"ilc.calls", "count"},
	{"ilc.ns_per_il_instr", "ns"},
	{"ilc.alloc_mb", "MB"},
	{"cache.self_ms", "ms"},
	{"cache.replays", "count"},
	{"cache.accesses", "count"},
	{"cache.ns_per_access", "ns"},
	{"cache.alloc_mb", "MB"},
	{"sim.self_ms", "ms"},
	{"sim.launches", "count"},
	{"sim.us_per_launch", "us"},
	{"sim.kcycles", "kcycles"},
	{"sim.alloc_mb", "MB"},
	{"sim.trace_ms", "ms"},
	{"kerngen.self_ms", "ms"},
	{"campaign.plan_ms", "ms"},
	{"campaign.units", "count"},
	{"campaign.deduped", "count"},
	{"core.overhead_ms", "ms"},
	{"traced.coverage", "ratio"},
	{"traced.overhead_ms", "ms"},
	{"pipeline.compile.hit_rate", "ratio"},
	{"pipeline.replay.hit_rate", "ratio"},
	{"pipeline.replay_prefix.hit_rate", "ratio"},
	{"pipeline.simulate.hit_rate", "ratio"},
	{"pipeline.persist.hits", "count"},
	{"pipeline.persist.writes", "count"},
	{"persist.disk_mb", "MB"},
	{"daemon.submit_ms_p50", "ms"},
	{"daemon.run_ms_p50", "ms"},
	{"daemon.csv_ms_p50", "ms"},
	{"daemon.polls_per_job", "count"},
	{"daemon.csv_kb_per_job", "KB"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill checks that values holds exactly the defined metrics, each a
// finite number, and attaches their units.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(values), len(defs))
	}
	return out, nil
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
