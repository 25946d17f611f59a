package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
	"amdgpubench/internal/daemon"
)

// startDaemon spins an in-process amdmbd over httptest — the real wire
// protocol (internal/daemon is exactly what cmd/amdmbd serves), without
// needing a second binary or a port.
func startDaemon(t *testing.T, maxDomain int) *httptest.Server {
	t.Helper()
	s := core.NewSuite()
	s.Iterations = 1
	s.MaxDomain = maxDomain
	ts := httptest.NewServer(daemon.NewServer(campaign.NewJobs(s), s.Metrics(), nil))
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteCampaignMatchesLocal is the client's contract: the same
// -figs -csv campaign, run locally and through -remote, must write
// byte-identical stdout.
func TestRemoteCampaignMatchesLocal(t *testing.T) {
	const figs = "fig7,fig8"
	code, local, stderr := runCLI(t, "campaign", "-figs", figs, "-iters", "1", "-max-domain", "16", "-csv")
	if code != 0 {
		t.Fatalf("local: exit %d, stderr: %s", code, stderr)
	}

	ts := startDaemon(t, 16)
	code, remote, stderr := runCLI(t,
		"campaign", "-figs", figs, "-iters", "1", "-max-domain", "16", "-csv", "-remote", ts.URL)
	if code != 0 {
		t.Fatalf("remote: exit %d, stderr: %s", code, stderr)
	}
	if remote != local {
		t.Errorf("remote stdout differs from local:\n%s", firstDiff(local, remote))
	}
	for _, want := range []string{"figures=2", "failed=0", "remote c"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("remote summary missing %q: %s", want, stderr)
		}
	}
}

// TestRemoteUsage pins the client-side validation surface: local-only
// flags, the -csv requirement, -archs without -remote, and the daemon's
// 400s surfacing as exit 2.
func TestRemoteUsage(t *testing.T) {
	ts := startDaemon(t, 16)
	cases := []struct {
		name     string
		args     []string
		wantCode int
		want     string
	}{
		{"cache-dir is local-only",
			[]string{"campaign", "-figs", "fig7", "-csv", "-remote", ts.URL, "-cache-dir", "cache"},
			2, "-cache-dir"},
		{"plan is local-only",
			[]string{"campaign", "-figs", "fig7", "-csv", "-remote", ts.URL, "-plan"},
			2, "-plan"},
		{"remote requires csv",
			[]string{"campaign", "-figs", "fig7", "-remote", ts.URL},
			2, "-remote requires -csv"},
		{"archs requires remote",
			[]string{"campaign", "-figs", "fig7", "-csv", "-archs", "4870"},
			2, "-archs requires -remote"},
		{"daemon rejects iteration mismatch",
			[]string{"campaign", "-figs", "fig7", "-iters", "3", "-csv", "-remote", ts.URL},
			2, "iterations 3 unavailable"},
		{"daemon rejects unfilterable figure",
			[]string{"campaign", "-figs", "trans", "-csv", "-remote", ts.URL, "-archs", "4870"},
			2, "cannot be arch-filtered"},
		{"unreachable daemon",
			[]string{"campaign", "-figs", "fig7", "-csv", "-remote", "127.0.0.1:1"},
			1, "amdmb campaign:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.wantCode, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q: %s", tc.want, stderr)
			}
		})
	}
}

// TestRemoteArchFilter: a filtered remote campaign serves only the
// requested architecture's series.
func TestRemoteArchFilter(t *testing.T) {
	ts := startDaemon(t, 16)
	code, out, stderr := runCLI(t,
		"campaign", "-figs", "fig7", "-iters", "1", "-csv", "-remote", ts.URL, "-archs", "4870")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "4870") {
		t.Fatalf("no 4870 series in filtered output:\n%s", out)
	}
	for _, other := range []string{"3870", "5870"} {
		if strings.Contains(out, other) {
			t.Errorf("series %q survived a 4870-only filter:\n%s", other, out)
		}
	}
}
