// Command benchrec is the suite's benchmark of record. One run measures
// one workload for a fixed time, checks every output it produced, and
// prints its metrics as the last line of standard output:
//
//	bash benchrec/run.sh --workload flagship --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// makes a traced run instead and prints the per-layer metrics.
// README.md documents every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Seeds of record: tuningSeed is the seed the benchmark was tuned on;
// heldOutSeed is kept for checking a performance claim on inputs the
// change was not written against.
const (
	tuningSeed  = 1
	heldOutSeed = 9173
)

// Sweeps run on every CPU, and daemon-mix drives the daemon with a
// fixed number of closed-loop clients. Neither is a flag: every recorded
// number comes from this one configuration, and a host with fewer CPUs
// than clients is refused.
var workers = runtime.NumCPU()

const clients = 2

// setupRepeats is how many times a run sets its workload up from a
// fresh process; setup_s is the median.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: goldens are read and scratch is written below it
	tmp      string // this run's scratch directory, removed at exit
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	nproc := runtime.NumCPU()
	fs := flag.NewFlagSet("benchrec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o         options
		trace     int
		probe     = fs.Bool("setup-probe", false, "set the workload up once and exit (setup_s is timed around this)")
		primeDir  = fs.String("prime-dir", "", "with -setup-probe on daemon-mix: the persist directory to prime")
		workloads = fmt.Sprintf("%s, %s or %s", wlFlagship, wlHier, wlDaemonMix)
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloads)
	fs.Int64Var(&o.seed, "seed", tuningSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "1 makes a traced run and prints per-layer metrics")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	o.trace = trace == 1
	switch {
	case o.workload != wlFlagship && o.workload != wlHier && o.workload != wlDaemonMix:
		fmt.Fprintf(stderr, "benchrec: -workload must be %s\n", workloads)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "benchrec: -trace must be 0 or 1")
		return 2
	case o.seconds <= 0:
		fmt.Fprintln(stderr, "benchrec: -seconds must be positive")
		return 2
	case clients > nproc:
		fmt.Fprintf(stderr, "benchrec: %d daemon-mix clients need at least %d CPUs, have %d\n", clients, clients, nproc)
		return 2
	}
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}

	var err error
	if o.root, err = os.Getwd(); err != nil {
		fmt.Fprintf(stderr, "benchrec: %v\n", err)
		return 1
	}
	if *probe {
		if err := setupOnce(o, *primeDir); err != nil {
			fmt.Fprintf(stderr, "benchrec: setup: %v\n", err)
			if errors.Is(err, errCheck) {
				return exitCheck
			}
			return 1
		}
		return 0
	}

	o.tmp = filepath.Join(o.root, ".bench_build", "tmp", fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchrec: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.tmp)

	var out outcome
	if o.workload == wlDaemonMix {
		out, err = runDaemonMix(o, stderr)
	} else {
		out, err = runCampaign(o, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchrec: %s: %v\n", o.workload, err)
		return 1
	}
	for _, msg := range out.mismatches {
		fmt.Fprintf(stderr, "benchrec: %s: check failed: %s\n", o.workload, msg)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics, err := fill(defs, out.values)
	if err != nil {
		fmt.Fprintf(stderr, "benchrec: %s: %v\n", o.workload, err)
		return 1
	}
	prov, err := provenance(o, out.samples)
	if err != nil {
		fmt.Fprintf(stderr, "benchrec: %v\n", err)
		return 1
	}
	res := result{
		Correct:   len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "benchrec: %s: nothing was attempted\n", o.workload)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchrec: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, prov)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	values     map[string]float64
	samples    map[string]int // sample count behind each summarised metric
	attempted  int
	failed     int
	mismatches []string // failed output checks; any one makes the run incorrect
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// errCheck is returned by a setup probe whose outputs were wrong; the
// probe then exits with exitCheck, and the run counts a failed check
// instead of stopping.
var errCheck = errors.New("output check failed")

const exitCheck = 3
