package main

// Golden-figure pinning. The four figures below are the paper's
// load-bearing results (ALU:Fetch crossover, read latency, register
// usage, cache hierarchy); their full CSV output is checked in under
// testdata/golden/ and compared byte-for-byte. The model is
// deterministic, so any diff is a semantic change to the simulator or
// compiler and must be reviewed — and re-pinned with -update-goldens —
// rather than absorbed silently.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/golden from current output")

var goldenFigures = []string{"fig7", "fig8", "fig11", "fig16"}

// concatenatedGoldens is the pinned stdout of a -csv campaign over
// goldenFigures: each figure's golden CSV, in order.
func concatenatedGoldens(t *testing.T) string {
	t.Helper()
	return concatenatedGoldensIn(t, goldenFigures)
}

// concatenatedGoldensIn concatenates the named figures' golden CSVs in
// the order given.
func concatenatedGoldensIn(t *testing.T, figs []string) string {
	t.Helper()
	var want strings.Builder
	for _, fig := range figs {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", fig+".csv"))
		if err != nil {
			t.Fatalf("%v (run `go test ./cmd/amdmb -run TestGoldenFigureCSVs -update-goldens` to pin)", err)
		}
		want.Write(data)
	}
	return want.String()
}

func TestGoldenFigureCSVs(t *testing.T) {
	for _, fig := range goldenFigures {
		t.Run(fig, func(t *testing.T) {
			code, out, stderr := runCLI(t, "-iters", "1", "-csv", fig)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			path := filepath.Join("testdata", "golden", fig+".csv")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/amdmb -run TestGoldenFigureCSVs -update-goldens` to pin)", err)
			}
			if out != string(want) {
				t.Errorf("%s CSV drifted from golden:\n%s", fig, firstDiff(string(want), out))
			}
		})
	}
}

// firstDiff reports the first differing line so a drift failure is
// readable without an external diff tool.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d, got %d", len(w), len(g))
}

// TestGoldenFilesPresent fails when a golden file exists for a figure
// no longer in the pinned set, or vice versa — keeps testdata/golden
// and goldenFigures in lockstep.
func TestGoldenFilesPresent(t *testing.T) {
	if *updateGoldens {
		t.Skip("regenerating")
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("%v (run with -update-goldens first)", err)
	}
	want := map[string]bool{}
	for _, fig := range goldenFigures {
		want[fig+".csv"] = true
	}
	for _, fig := range hierGoldenFigures {
		want[fig+".csv"] = true
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("stray golden file %s", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("missing golden file %s", name)
	}
}
