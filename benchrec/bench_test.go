package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"amdgpubench/internal/campaign"
)

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	var workloads []string
	for _, w := range bj.Workloads {
		check(w.Name)
		workloads = append(workloads, w.Name)
	}
	sort.Strings(workloads)
	if want := []string{wlDaemonMix, wlFlagship, wlHier}; !reflect.DeepEqual(workloads, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", workloads, want)
	}

	compare := func(kind string, declared []metricDef, listed map[string]string) {
		if len(declared) != len(listed) {
			t.Errorf("%s: code defines %d metrics, BENCHMARK.json lists %d", kind, len(declared), len(listed))
		}
		for _, d := range declared {
			check(d.name)
			if unit, ok := listed[d.name]; !ok || unit != d.unit {
				t.Errorf("%s: %s [%s] in code, [%s] in BENCHMARK.json", kind, d.name, d.unit, unit)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	compare("end_to_end", endToEnd, e2e)
	compare("per_layer", perLayer, layer)
}

func TestSampleStats(t *testing.T) {
	tests := []struct {
		s           sample
		median      float64
		p90         float64
		n, p90After int
	}{
		{sample{3, 1, 2}, 2, 3, 3, 0},
		{sample{4, 1, 3, 2}, 2.5, 4, 4, 0},
		{sample{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 10.5, 18, 20, 2},
	}
	for _, tc := range tests {
		m, n := tc.s.median()
		if m != tc.median || n != tc.n {
			t.Errorf("median(%v) = %v over %d, want %v over %d", tc.s, m, n, tc.median, tc.n)
		}
		p, n, beyond := tc.s.percentile(90)
		if p != tc.p90 || n != tc.n || beyond != tc.p90After {
			t.Errorf("p90(%v) = %v over %d with %d beyond, want %v over %d with %d beyond",
				tc.s, p, n, beyond, tc.p90, tc.n, tc.p90After)
		}
	}
	if m, n := (sample{}).median(); !math.IsNaN(m) || n != 0 {
		t.Errorf("empty median = %v over %d, want NaN over 0", m, n)
	}
	if p, n, _ := (sample{}).percentile(50); !math.IsNaN(p) || n != 0 {
		t.Errorf("empty percentile = %v over %d, want NaN over 0", p, n)
	}
}

// Simulated counts are properties of the inputs, not of the host: two
// traced runs of the same requests must report them identically.
func TestSimulatedCountsRepeat(t *testing.T) {
	reqs := []request{
		{Figs: campaignFigs[wlFlagship]},
		{Figs: []string{"fig9", "fig17"}, Archs: []string{"RV770"}, MaxDomain: 256},
	}
	var first layerRun
	for i := 0; i < 2; i++ {
		runs, l, err := traced(newSuite(1), reqs)
		if err != nil {
			t.Fatal(err)
		}
		_, untraced, _, err := untracedRun(newSuite(1), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRuns(runs, untraced); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = l
			continue
		}
		if l.units != first.units || l.cycles != first.cycles || l.accesses != first.accesses {
			t.Errorf("second run: units %d, cycles %d, accesses %d; first: %d, %d, %d",
				l.units, l.cycles, l.accesses, first.units, first.cycles, first.accesses)
		}
	}
	if first.units == 0 || first.cycles == 0 || first.accesses == 0 {
		t.Errorf("units %d, cycles %d, accesses %d: want all counted", first.units, first.cycles, first.accesses)
	}
}

// The fixed size order of the mix figures must still be the order the
// live plans give: every figure outside the hierarchy dissection, in
// non-increasing launch units at primedDomain. The two figures sent at
// new domains must keep their unit counts there, so every seed writes
// the same number of results through.
func TestMixFigures(t *testing.T) {
	var want []string
	for _, n := range campaign.FigureNames() {
		if !strings.HasPrefix(n, "hier-") {
			want = append(want, n)
		}
	}
	got := mixFigureNames()
	if !reflect.DeepEqual(sortedStrings(append([]string(nil), got...)), sortedStrings(want)) {
		t.Fatalf("mix figures %v, want the non-hier figures %v", got, want)
	}
	units := func(f string, domain int) int {
		p, err := plan(newSuite(1), request{Figs: []string{f}, MaxDomain: domain})
		if err != nil {
			t.Fatalf("%s at %d: %v", f, domain, err)
		}
		return len(p.Units)
	}
	prev := -1
	for i, f := range mixFigures {
		u := units(f.name, primedDomain)
		if u != f.units {
			t.Logf("%s: %d launch units at %d, recorded %d", f.name, u, primedDomain, f.units)
		}
		if i > 0 && u > prev {
			t.Errorf("%s has %d launch units at %d, more than %s's %d before it: the recorded size order no longer holds",
				f.name, u, primedDomain, mixFigures[i-1].name, prev)
		}
		prev = u
	}
	for _, f := range newDomainFigures() {
		base := units(f, primedDomain)
		for _, d := range []int{2 * primedDomain, primedDomain / 2} {
			if u := units(f, d); u != base {
				t.Errorf("%s: %d launch units at %d, %d at %d", f, u, d, base, primedDomain)
			}
		}
	}
}

func sortedStrings(s []string) []string {
	sort.Strings(s)
	return s
}

// Every seed's mix is valid and balanced: every request plans, and every
// seed asks for the same figures at the same domains with nearly the
// same number of launch units.
func TestMixRequests(t *testing.T) {
	figs := mixFigureNames()
	wantUnits := -1
	for _, seed := range []int64{tuningSeed, heldOutSeed, 2, 3, 4, 5} {
		a, primeA := mixRequests(seed)
		b, primeB := mixRequests(seed)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(primeA, primeB) {
			t.Fatalf("seed %d: two draws differ", seed)
		}
		seq := interleave(a)
		if want := len(figs)/2 + 2 + warmPairings*len(figs)/2 + 4; len(seq) != want {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(seq), want)
		}
		primed, atPrimed, filtered, units := map[string]bool{}, map[string]bool{}, 0, 0
		for _, r := range primeA {
			for _, f := range r.Figs {
				primed[f] = true
			}
		}
		s := newSuite(1)
		for _, r := range append(seq, primeA...) {
			p, err := plan(s, r)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, r.key(), err)
			}
			for si := range p.Specs {
				if len(p.Specs[si].Figure.Points) == 0 {
					t.Errorf("seed %d: %s leaves %s with no points", seed, r.key(), p.Specs[si].Name)
				}
			}
		}
		for _, r := range seq {
			p, _ := plan(s, r)
			if len(r.Archs) == 0 {
				units += len(p.Units)
			} else {
				filtered++
			}
			for _, f := range r.Figs {
				if r.MaxDomain == primedDomain {
					atPrimed[f] = true
				}
			}
		}
		if len(primed) != len(figs) || len(atPrimed) != len(figs) {
			t.Errorf("seed %d: %d figures primed, %d asked for at the primed domain, want %d", seed, len(primed), len(atPrimed), len(figs))
		}
		if filtered != 4 {
			t.Errorf("seed %d: %d requests carry an archs filter, want 4", seed, filtered)
		}
		// Pairing moves only the few units two figures of one request
		// share.
		if wantUnits < 0 {
			wantUnits = units
		} else if math.Abs(float64(units-wantUnits)) > 0.01*float64(wantUnits) {
			t.Errorf("seed %d: unfiltered requests hold %d launch units, seed %d's hold %d", seed, units, tuningSeed, wantUnits)
		}
	}
}
