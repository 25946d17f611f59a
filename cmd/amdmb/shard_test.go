package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// runShards runs every shard of an n-way campaign concurrently, each
// writing through to the one shared cache directory, and fails the test
// unless every shard exits cleanly, emits no figures and reports its
// summary on stderr.
func runShards(t *testing.T, n int, args ...string) {
	t.Helper()
	type result struct {
		code           int
		stdout, stderr string
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for shard := 0; shard < n; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			var out, errOut bytes.Buffer
			argv := append(append([]string{}, args...), "-shard", fmt.Sprintf("%d/%d", shard, n))
			code := run(argv, &out, &errOut)
			results[shard] = result{code, out.String(), errOut.String()}
		}(shard)
	}
	wg.Wait()
	for shard, r := range results {
		spec := fmt.Sprintf("%d/%d", shard, n)
		if r.code != 0 {
			t.Fatalf("shard %s: exit %d, stderr: %s", spec, r.code, r.stderr)
		}
		if r.stdout != "" {
			t.Errorf("shard %s emitted figures; shards only persist:\n%s", spec, r.stdout)
		}
		if !strings.Contains(r.stderr, "campaign shard "+spec+":") || !strings.Contains(r.stderr, "failed=0") {
			t.Errorf("shard %s summary missing or records failures: %s", spec, r.stderr)
		}
	}
}

// TestCampaignShardsMergeToGoldens is the sharding acceptance test: the
// golden bundle split across two concurrent shards sharing one
// -cache-dir, then an unsharded run over the same directory that
// computes nothing — every simulation is served from disk — and emits
// stdout byte-identical to the concatenated golden CSVs.
func TestCampaignShardsMergeToGoldens(t *testing.T) {
	cache := t.TempDir()
	figs := strings.Join(goldenFigures, ",")
	runShards(t, 2, "campaign", "-figs", figs, "-iters", "1", "-cache-dir", cache)

	code, out, stderr := runCLI(t,
		"campaign", "-figs", figs, "-iters", "1", "-csv", "-cache-dir", cache, "-metrics-json")
	if code != 0 {
		t.Fatalf("merge run: exit %d, stderr: %s", code, stderr)
	}
	m := metricsOf(t, stderr)
	if m["pipeline.persist.misses"] != 0 || m["pipeline.persist.hits"] == 0 {
		t.Errorf("merge run computed %d simulations and served %d; want 0 computed",
			m["pipeline.persist.misses"], m["pipeline.persist.hits"])
	}

	if want := concatenatedGoldens(t); out != want {
		t.Errorf("sharded+merged campaign stdout diverges from goldens:\n%s", firstDiff(want, out))
	}
}

// TestCampaignShardUsage pins the sharding flag's usage-error surface.
func TestCampaignShardUsage(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no cache dir", []string{"campaign", "-figs", "fig16", "-shard", "0/2"}, "requires -cache-dir"},
		{"no-cache", []string{"campaign", "-figs", "fig16", "-cache-dir", "x", "-no-cache", "-shard", "0/2"}, "requires -cache-dir"},
		{"bad format", []string{"campaign", "-figs", "fig16", "-cache-dir", "x", "-shard", "2"}, "bad -shard"},
		{"out of range", []string{"campaign", "-figs", "fig16", "-cache-dir", "x", "-shard", "2/2"}, "bad -shard"},
		{"negative", []string{"campaign", "-figs", "fig16", "-cache-dir", "x", "-shard", "-1/2"}, "bad -shard"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q: %s", tc.want, stderr)
			}
		})
	}
}

// TestCacheDirWriteFailureFails pins that -cache-dir is not best-effort
// at the command surface: a shard exists only to persist its results,
// and a resume or merge depends on them, so a directory that cannot take
// them fails the run instead of exiting 0. The directory sits under a
// regular file, which no user, root included, can create it beneath.
func TestCacheDirWriteFailureFails(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cache := filepath.Join(file, "cache")
	for _, args := range [][]string{
		{"campaign", "-figs", "fig16", "-iters", "1", "-max-domain", "16", "-cache-dir", cache, "-shard", "0/2"},
		{"campaign", "-figs", "fig16", "-iters", "1", "-max-domain", "16", "-cache-dir", cache, "-csv"},
		{"-iters", "1", "-max-domain", "16", "-cache-dir", cache, "-csv", "fig16"},
	} {
		code, _, stderr := runCLI(t, args...)
		if code != 1 {
			t.Errorf("%q: exit %d, want 1; stderr: %s", args, code, stderr)
		}
		if !strings.Contains(stderr, "persist error") {
			t.Errorf("%q: stderr does not name the persist errors: %s", args, stderr)
		}
	}
}
