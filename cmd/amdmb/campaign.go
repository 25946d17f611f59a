package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"amdgpubench/internal/campaign"
)

// The campaign subcommand: plan several figures as one deduplicated DAG
// of launch units (internal/campaign) and execute them as a single
// resilient sweep — shared work runs once and its result fans out to
// every subscribing figure.
//
//	amdmb campaign -figs fig7,fig8,fig11,fig16 -csv
//	amdmb campaign -figs fig16,clausectl -plan     # schedule + dedup stats, run nothing
//
// -cache-dir is the only persistence. Re-running a killed campaign with
// the same -cache-dir is a resume: every unit it finished is served from
// disk. A campaign partitions across processes with -shard i/n (which
// requires -cache-dir): each shard runs the units whose scheduled index
// is congruent to i mod n, writes their results through to the shared
// directory, and emits no figures. The follow-up unsharded run with the
// same -cache-dir serves every unit from disk, emitting figures
// byte-identical to a run that never sharded — there is no merge step:
//
//	amdmb campaign -figs fig7,fig8 -cache-dir cache -shard 0/2 &
//	amdmb campaign -figs fig7,fig8 -cache-dir cache -shard 1/2 &
//	wait; amdmb campaign -figs fig7,fig8 -cache-dir cache -csv
//
// A resume or merge run still generates, compiles and replays every
// unit; only the simulation is served from disk.
//
// With -remote the campaign runs on an amdmbd daemon instead of
// in-process: the request (figures, -max-domain, -iters, optionally
// -archs) ships over HTTP, the daemon executes it on its shared suite —
// deduplicating against every other client's concurrent campaigns and
// its persistent cache — and the client streams back CSVs that are
// byte-identical to a local -csv run:
//
//	amdmb campaign -figs fig7,fig8 -csv -remote http://127.0.0.1:7821
//
// Figures print to stdout in -figs order with exactly the rendering the
// per-figure experiments use; the campaign summary line goes to stderr,
// so piped stdout of a -csv campaign is byte-for-byte the concatenation
// of the individual figures' CSV output. Exit status matches the main
// command: 0 on success, 1 on a fatal error, 2 on usage errors, 3 when
// units completed but recorded per-point failures.

// runCampaignCmd is the `amdmb campaign` entry point; argv excludes the
// "campaign" word itself.
func runCampaignCmd(argv []string, stdout, stderr io.Writer) int {
	c := &cli{out: stdout, errOut: stderr}
	fs := flag.NewFlagSet("amdmb campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figs      string
		planOnly  bool
		workers   int
		shardSpec string
		remote    string
		archsSpec string
	)
	fs.StringVar(&figs, "figs", "", "comma-separated figures to schedule together (required)")
	fs.BoolVar(&planOnly, "plan", false, "print the deduped schedule and dedup statistics, run nothing")
	fs.IntVar(&workers, "workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
	fs.StringVar(&shardSpec, "shard", "", "run shard i of n (format i/n, requires -cache-dir); the unsharded run over the same -cache-dir reads the shards back")
	fs.StringVar(&remote, "remote", "", "run the campaign on an amdmbd daemon at this address instead of in-process (requires -csv)")
	fs.StringVar(&archsSpec, "archs", "", "comma-separated architectures to restrict every figure to, e.g. 4870,RV870 (remote only)")
	c.commonFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	shard, shards := 0, 1
	if shardSpec != "" {
		if n, err := fmt.Sscanf(shardSpec, "%d/%d", &shard, &shards); n != 2 || err != nil || shards < 1 || shard < 0 || shard >= shards {
			fmt.Fprintf(stderr, "amdmb campaign: bad -shard %q, want i/n with 0 <= i < n\n", shardSpec)
			return 2
		}
	}
	if shards > 1 && (c.cacheDir == "" || c.noCache) {
		fmt.Fprintln(stderr, "amdmb campaign: -shard requires -cache-dir without -no-cache (shards combine through the persistent cache)")
		return 2
	}
	if len(fs.Args()) != 0 {
		fmt.Fprintf(stderr, "amdmb campaign: unexpected arguments %q (figures go in -figs)\n", fs.Args())
		return 2
	}
	if figs == "" {
		fmt.Fprintln(stderr, "usage: amdmb campaign -figs a,b,... [flags]")
		fmt.Fprintf(stderr, "figures: %s\n", strings.Join(campaign.FigureNames(), " "))
		return 2
	}
	var names []string
	for _, n := range strings.Split(figs, ",") {
		n = strings.ToLower(strings.TrimSpace(n))
		if n == "" {
			continue
		}
		// Trailing-'*' globs expand below; plain names must be known.
		if !strings.HasSuffix(n, "*") && !campaign.Known(n) {
			fmt.Fprintf(stderr, "amdmb campaign: unknown figure %q\n", n)
			fmt.Fprintf(stderr, "figures: %s\n", strings.Join(campaign.FigureNames(), " "))
			return 2
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		fmt.Fprintln(stderr, "amdmb campaign: -figs lists no figures")
		return 2
	}
	names, err := campaign.Expand(names)
	if err != nil {
		fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
		return 2
	}

	if remote != "" {
		// Flags that configure the LOCAL suite or its artifacts have no
		// remote meaning; failing beats silently ignoring them. -iters
		// and -max-domain travel in the request instead.
		localOnly := map[string]bool{
			"plan": true, "shard": true, "workers": true, "faults": true,
			"no-cache": true, "cache-dir": true, "trace": true,
			"metrics": true, "metrics-json": true,
			"progress": true, "o": true, "timeout": true, "retries": true,
		}
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if localOnly[f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			fmt.Fprintf(stderr, "amdmb campaign: %s configure the local suite and cannot combine with -remote (the daemon owns those settings)\n",
				strings.Join(bad, " "))
			return 2
		}
		if !c.csv {
			fmt.Fprintln(stderr, "amdmb campaign: -remote requires -csv (the daemon serves figures as CSV)")
			return 2
		}
		var archs []string
		for _, a := range strings.Split(archsSpec, ",") {
			if a = strings.TrimSpace(a); a != "" {
				archs = append(archs, a)
			}
		}
		return runRemoteCampaign(remote, names, archs, c)
	}
	if archsSpec != "" {
		fmt.Fprintln(stderr, "amdmb campaign: -archs requires -remote (local campaigns sweep every architecture a figure defines)")
		return 2
	}

	s, err := c.newSuite()
	if err != nil {
		fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
		return 2
	}
	s.Workers = workers

	specs, err := campaign.Specs(s, names)
	if err != nil {
		fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
		return 1
	}
	// The plan clamps domains itself with the same cap as the suite, so
	// the dry-run schedule is exactly what the suite would execute.
	plan, err := campaign.NewPlan(specs, campaign.Options{MaxDomain: c.maxDomain})
	if err != nil {
		fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
		return 1
	}
	if planOnly {
		campaign.RenderPlan(stdout, plan)
		return 0
	}

	if shards > 1 {
		res, err := plan.RunShard(s, shard, shards)
		if err != nil {
			fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "campaign shard %d/%d: units=%d executed=%d failed=%d\n",
			shard, shards, len(plan.Units), res.Executed, res.Failed())
		return c.epilogue(s)
	}

	res, err := plan.Run(s)
	if err != nil {
		fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
		return 1
	}
	for _, fig := range res.Figures {
		if err := c.emitFigure(fig); err != nil {
			fmt.Fprintf(stderr, "amdmb campaign: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "campaign: figures=%d points=%d units=%d deduped=%d executed=%d failed=%d\n",
		res.Stats.Figures, res.Stats.Points, len(plan.Units), res.Stats.DedupedTotal(),
		res.Executed, res.Failed())
	return c.epilogue(s)
}
