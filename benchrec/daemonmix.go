package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
	"amdgpubench/internal/daemon"
	"amdgpubench/internal/obs"
)

// The daemon-mix workload: an in-process daemon over one shared suite,
// its persist directory primed in setup by an earlier daemon that served
// another slice of the same mix, and closed-loop clients that each
// submit a seeded sequence of overlapping requests, poll their job and
// fetch every CSV. Each pass starts a fresh daemon on a fresh copy of
// the primed directory, so every pass does the same work.
//
// Every seed asks for the same work in the same amounts; the seed picks
// how figures pair in the priming and warm requests, which small figure
// goes to which new domain, the order of the warm requests and the archs
// filters. Setup primes all 16 figures at primedDomain, two to a
// request. A pass first sends the cold requests, dealt to the clients in
// turn: the figures paired largest with smallest at that domain, read
// from disk, and two single-figure requests at new domains, which miss
// and write through. Then it sends the warm ones: random pairs of
// figures at the primed domain, and the new-domain requests again,
// narrowed by an archs filter, all served from memory. Two jobs in three
// are warm, so the median job lies inside the warm group; the 90th
// percentile falls among the three middle cold pairs, which hold about
// the same number of launch units, so it does not jump between jobs of
// different sizes. Synchronous writes are the noisiest cost on a shared
// disk, so the new-domain misses are kept few and their jobs short: the
// two figures just below the middle of the size order, whose launch
// units do not depend on the domain, so every seed writes the same
// number of results.

const (
	primedDomain = 256
	warmPairings = 2 // times the 16 figures are paired into warm requests
	pollInterval = 2 * time.Millisecond
)

// archFilters are the archs filters a narrowed repeat may carry. Every
// filterable figure has points on both RV770 and RV870.
var archFilters = [][]string{{"RV770"}, {"RV870"}, {"RV770", "RV870"}}

// mixFigures are the 16 figures that are not part of the hierarchy
// dissection, largest first by launch units at primedDomain, with the
// unit counts they were measured at (ties keep campaign.FigureNames
// order). The list is fixed here, not derived on each build, so that a
// change to the specs or the planner cannot change the requests the
// workload sends; TestMixFigures fails when the live plans no longer
// give this order.
var mixFigures = []struct {
	name  string
	units int
}{
	{"fig7", 320}, {"fig10", 256}, {"fig9", 192}, {"fig11", 170},
	{"fig12", 170}, {"fig8", 128}, {"clausectl", 80}, {"fig14", 80},
	{"fig16", 80}, {"fig13", 48}, {"fig17", 32}, {"trans", 32},
	{"blocks", 28}, {"consts", 10}, {"fig15a", 6}, {"fig15b", 4},
}

// mixFigureNames is mixFigures' names, largest first.
func mixFigureNames() []string {
	names := make([]string, len(mixFigures))
	for i, f := range mixFigures {
		names[i] = f.name
	}
	return names
}

// newDomainFigures are the two figures just below the middle of the
// size order, sent alone at new domains. Their launch units do not
// depend on the domain.
func newDomainFigures() []string {
	figs := mixFigureNames()
	return figs[len(figs)/2+1 : len(figs)/2+3]
}

// pairUp shuffles figs and cuts them into two-figure requests at domain.
func pairUp(rng *rand.Rand, figs []string, domain int) []request {
	var reqs []request
	perm := rng.Perm(len(figs))
	for i := 0; i+1 < len(perm); i += 2 {
		reqs = append(reqs, request{Figs: []string{figs[perm[i]], figs[perm[i+1]]}, MaxDomain: domain})
	}
	return reqs
}

// pairBySize pairs the i-th largest of figs (sorted largest first) with
// the i-th smallest, at domain.
func pairBySize(figs []string, domain int) []request {
	reqs := make([]request, len(figs)/2)
	for i := range reqs {
		reqs[i] = request{Figs: []string{figs[i], figs[len(figs)-1-i]}, MaxDomain: domain}
	}
	return reqs
}

// mixRequests draws a seed's mix: each client's request sequence, and
// the priming slice the setup daemon serves.
func mixRequests(seed int64) (perClient [][]request, primeSlice []request) {
	figs := mixFigureNames()
	rng := rand.New(rand.NewSource(seed))
	primeSlice = pairUp(rng, figs, primedDomain)

	small := newDomainFigures()
	pick := rng.Perm(len(small))
	newDomain := []request{
		{Figs: []string{small[pick[0]]}, MaxDomain: 2 * primedDomain},
		{Figs: []string{small[pick[1]]}, MaxDomain: primedDomain / 2},
	}
	cold := append(pairBySize(figs, primedDomain), newDomain...)
	var warm []request
	for k := 0; k < warmPairings; k++ {
		warm = append(warm, pairUp(rng, figs, primedDomain)...)
	}
	for k := 0; k < 2; k++ {
		for _, r := range newDomain {
			r.Archs = archFilters[rng.Intn(len(archFilters))]
			warm = append(warm, r)
		}
	}

	rng.Shuffle(len(warm), func(a, b int) { warm[a], warm[b] = warm[b], warm[a] })

	// The cold requests go out in a fixed order, dealt in turn, so the
	// clients' cold jobs overlap the same way under every seed.
	perClient = make([][]request, clients)
	for i, r := range append(cold, warm...) {
		perClient[i%clients] = append(perClient[i%clients], r)
	}
	return perClient, primeSlice
}

// interleave is the clients' requests in the order a single caller
// would send them: first of each client, then second of each, ...
func interleave(perClient [][]request) []request {
	var out []request
	for i := 0; ; i++ {
		n := len(out)
		for _, reqs := range perClient {
			if i < len(reqs) {
				out = append(out, reqs[i])
			}
		}
		if len(out) == n {
			return out
		}
	}
}

// mixServer is one in-process daemon on a loopback port.
type mixServer struct {
	suite *core.Suite
	hs    *http.Server
	base  string
	done  chan error
}

func startServer(persistDir string) (*mixServer, error) {
	s := newSuite(workers)
	s.PersistDir = persistDir
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &mixServer{
		suite: s,
		hs: &http.Server{
			Handler:           daemon.NewServer(campaign.NewJobs(s), s.Metrics(), nil),
			ReadHeaderTimeout: 10 * time.Second,
		},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { m.done <- m.hs.Serve(ln) }()
	return m, nil
}

// stop shuts the server down and waits for it to exit. Every job has
// finished by then: each client waits for its job before going on.
func (m *mixServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := m.hs.Shutdown(ctx)
	if serr := <-m.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// job is one request's trip through the daemon, timed from the client.
type job struct {
	req                 request
	submit, run, fetch  time.Duration
	polls               int
	units, failedUnits  int
	csvs                map[string]string
	rejected, jobFailed bool
}

func (j job) total() time.Duration { return j.submit + j.run + j.fetch }

// client sends its requests one after another, each only after the last
// one's CSVs are in: a closed loop with one connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// get fetches a path and returns the body of a 200 response.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (c *client) do(r request) (job, error) {
	j := job{req: r, csvs: map[string]string{}}
	body, err := json.Marshal(r.campaign())
	if err != nil {
		return j, err
	}
	t := time.Now()
	resp, err := c.http.Post(c.base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, err
	}
	var st campaign.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	j.submit = time.Since(t)
	if resp.StatusCode != http.StatusAccepted {
		j.rejected = true
		return j, nil
	}
	if derr != nil {
		return j, fmt.Errorf("submit: %w", derr)
	}

	t = time.Now()
	for st.State == campaign.JobRunning {
		time.Sleep(pollInterval)
		b, err := c.get("/v1/campaigns/" + st.ID)
		if err != nil {
			return j, err
		}
		j.polls++
		if err := json.Unmarshal(b, &st); err != nil {
			return j, err
		}
	}
	j.run = time.Since(t)
	j.units, j.failedUnits = st.Units, st.FailedUnits
	if st.State != campaign.JobDone {
		j.jobFailed = true
		return j, nil
	}

	t = time.Now()
	for _, f := range st.Figs {
		b, err := c.get("/v1/campaigns/" + st.ID + "/figures/" + f + ".csv")
		if err != nil {
			return j, err
		}
		j.csvs[f] = string(b)
	}
	j.fetch = time.Since(t)
	return j, nil
}

// drive runs every client's sequence at once against base and returns
// the jobs, client by client, in the order they were sent.
func drive(base string, perClient [][]request) ([]job, error) {
	jobs := make([][]job, len(perClient))
	errs := make([]error, len(perClient))
	var wg sync.WaitGroup
	for ci := range perClient {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			for _, r := range perClient[ci] {
				j, err := c.do(r)
				if err != nil {
					errs[ci] = fmt.Errorf("client %d, request %s: %w", ci, r.key(), err)
					return
				}
				jobs[ci] = append(jobs[ci], j)
			}
		}(ci)
	}
	wg.Wait()
	var all []job
	for _, js := range jobs {
		all = append(all, js...)
	}
	return all, errors.Join(errs...)
}

// prime is the setup probe's body on daemon-mix: a daemon serving the
// priming slice fills dir, then shuts down.
func prime(o options, dir string) error {
	if dir == "" {
		return errors.New("daemon-mix setup needs -prime-dir")
	}
	_, slice := mixRequests(o.seed)
	m, err := startServer(dir)
	if err != nil {
		return err
	}
	jobs, err := drive(m.base, [][]request{slice})
	if serr := m.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if j.rejected || j.jobFailed || j.failedUnits > 0 {
			return fmt.Errorf("%w: priming request %s did not complete", errCheck, j.req.key())
		}
	}
	return nil
}

// linkDir makes dst a copy of src whose files are hard links to src's.
// The persist tier replaces an entry by renaming a new file over it and
// never writes into one, so a write under dst leaves src as it was.
func linkDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return os.Link(path, filepath.Join(dst, rel))
	})
}

// dirMB is the size of the regular files under dir.
func dirMB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return float64(n) / (1 << 20), err
}

// references computes each distinct request's CSVs as a local,
// one-worker, uncached campaign job: the answer every pass must match.
func references(reqs []request) (map[string]map[string]string, error) {
	refs := make(map[string]map[string]string)
	for _, r := range reqs {
		if _, ok := refs[r.key()]; ok {
			continue
		}
		s := newSuite(1)
		s.DisableArtifactCache = true
		j, err := campaign.NewJobs(s).Submit(r.campaign())
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", r.key(), err)
		}
		<-j.Done()
		if st := j.Status(); st.State != campaign.JobDone || st.FailedUnits > 0 {
			return nil, fmt.Errorf("reference %s: %s %s", r.key(), st.State, st.Error)
		}
		figs := make(map[string]string, len(r.Figs))
		for _, f := range r.Figs {
			fig, ok := j.Figure(f)
			if !ok {
				return nil, fmt.Errorf("reference %s: no figure %s", r.key(), f)
			}
			figs[f] = fig.CSV()
		}
		refs[r.key()] = figs
	}
	return refs, nil
}

// checkJobs compares every job's CSVs with its request's reference.
func checkJobs(out *outcome, refs map[string]map[string]string, jobs []job) {
	for _, j := range jobs {
		switch {
		case j.rejected:
			out.mismatch("request %s was rejected", j.req.key())
		case j.jobFailed:
			out.mismatch("request %s failed", j.req.key())
		}
		for f, want := range refs[j.req.key()] {
			if j.csvs[f] != want && !j.rejected && !j.jobFailed {
				out.mismatch("request %s: %s CSV differs from the one-worker uncached run", j.req.key(), f)
			}
		}
	}
}

func runDaemonMix(o options, stderr io.Writer) (outcome, error) {
	out := outcome{samples: map[string]int{}}
	perClient, _ := mixRequests(o.seed)
	seq := interleave(perClient)
	refs, err := references(seq)
	if err != nil {
		return out, err
	}

	primeDir := func(i int) string { return filepath.Join(o.tmp, fmt.Sprintf("prime-%d", i)) }
	setup, err := setupProbes(o, &out, stderr, func(i int) []string { return []string{"-prime-dir", primeDir(i)} })
	if err != nil {
		return out, err
	}
	primed := primeDir(setupRepeats - 1)
	for i := 0; i < setupRepeats-1; i++ {
		if err := os.RemoveAll(primeDir(i)); err != nil {
			return out, err
		}
	}

	// fresh makes a new copy of the primed directory.
	copies := 0
	fresh := func() (string, error) {
		copies++
		dir := filepath.Join(o.tmp, fmt.Sprintf("persist-%d", copies))
		return dir, linkDir(primed, dir)
	}
	if o.trace {
		return out, tracedMix(o, &out, perClient, seq, refs, fresh)
	}
	return out, measureMix(o, &out, perClient, refs, setup, fresh)
}

// mixPass is one daemon-mix pass: a fresh daemon on a fresh copy of the
// primed directory, every client's sequence driven to the end.
type mixPass struct {
	wall     time.Duration
	cpu      time.Duration
	allocs   uint64
	jobs     []job
	snapshot obs.Snapshot
	diskMB   float64
	retained float64
}

func runMixPass(perClient [][]request, dir string, keepRetained bool) (mixPass, error) {
	var p mixPass
	// Flush what earlier passes, copies and runs left dirty, so that the
	// pass's own synchronous writes do not wait on their write-back.
	syscall.Sync()
	runtime.GC()
	m, err := startServer(dir)
	if err != nil {
		return p, err
	}
	cpu0, a0 := cpuTime(), heapAllocs()
	start := time.Now()
	p.jobs, err = drive(m.base, perClient)
	p.wall = time.Since(start)
	p.cpu, p.allocs = cpuTime()-cpu0, heapAllocs()-a0
	if err == nil {
		p.snapshot = m.suite.Metrics().Snapshot()
		if keepRetained {
			p.retained = retainedMB()
		}
	}
	if serr := m.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return p, err
	}
	if p.diskMB, err = dirMB(dir); err != nil {
		return p, err
	}
	return p, os.RemoveAll(dir)
}

func measureMix(o options, out *outcome, perClient [][]request, refs map[string]map[string]string, setup sample, fresh func() (string, error)) error {
	var passWalls, jobTimes sample
	var wall, cpu time.Duration
	var allocs uint64
	var units int
	retained := 0.0
	start := time.Now()
	for len(passWalls) < minPasses || time.Since(start).Seconds() < o.seconds {
		dir, err := fresh()
		if err != nil {
			return err
		}
		p, err := runMixPass(perClient, dir, true)
		if err != nil {
			return err
		}
		checkJobs(out, refs, p.jobs)
		passWalls = append(passWalls, p.wall.Seconds())
		wall += p.wall
		cpu += p.cpu
		allocs += p.allocs
		retained = p.retained
		for _, j := range p.jobs {
			jobTimes = append(jobTimes, j.total().Seconds())
			units += j.units
			out.attempted += 1 + j.units
			out.failed += j.failedUnits
			if j.rejected || j.jobFailed {
				out.failed++
			}
		}
	}
	setupMed, setupN := setup.median()
	passP50, passN := passWalls.median()
	jobP50, jobN := jobTimes.median()
	jobP90, _, beyond := jobTimes.percentile(90)
	out.samples["setup_s"] = setupN
	out.samples["pass_s"] = passN
	out.samples["job_s"] = jobN
	out.samples["job_s_p90_beyond"] = beyond
	out.values = map[string]float64{
		"setup_s":           setupMed,
		"pass_s_p50":        passP50,
		"job_s_p50":         jobP50,
		"job_s_p90":         jobP90,
		"jobs_per_s":        float64(len(jobTimes)) / wall.Seconds(),
		"cpu_ms_per_unit":   float64(cpu.Nanoseconds()) / 1e6 / float64(units),
		"alloc_kb_per_unit": float64(allocs) / 1024 / float64(units),
		"retained_mb":       retained,
	}
	return nil
}

// checkLocal compares the one-worker local run's CSVs, which went
// through the benchmark's own arch filter, with the references.
func checkLocal(out *outcome, refs map[string]map[string]string, seq []request, csvs [][]string) {
	for i, r := range seq {
		for fi, f := range r.Figs {
			if csvs[i][fi] != refs[r.key()][f] {
				out.mismatch("request %s: %s CSV of the local one-worker run differs from the reference", r.key(), f)
			}
		}
	}
}

// tracedMix measures, per iteration, one daemon pass with client-side
// spans around each route, then the same requests in interleaved order
// on a one-worker suite twice, untraced and traced, each on its own copy
// of the primed directory.
func tracedMix(o options, out *outcome, perClient [][]request, seq []request, refs map[string]map[string]string, fresh func() (string, error)) error {
	per := map[string]sample{}
	start := time.Now()
	for n := 0; n < 1 || time.Since(start).Seconds() < o.seconds; n++ {
		dir, err := fresh()
		if err != nil {
			return err
		}
		p, err := runMixPass(perClient, dir, false)
		if err != nil {
			return err
		}
		checkJobs(out, refs, p.jobs)
		var submit, run, fetch, polls sample
		csvBytes := 0
		for _, j := range p.jobs {
			submit = append(submit, float64(j.submit.Nanoseconds())/1e6)
			run = append(run, float64(j.run.Nanoseconds())/1e6)
			fetch = append(fetch, float64(j.fetch.Nanoseconds())/1e6)
			polls = append(polls, float64(j.polls))
			for _, c := range j.csvs {
				csvBytes += len(c)
			}
			out.attempted++
		}
		for k, s := range map[string]sample{
			"daemon.submit_ms_p50": submit, "daemon.run_ms_p50": run, "daemon.csv_ms_p50": fetch,
		} {
			v, _ := s.median()
			per[k] = append(per[k], v)
		}
		per["daemon.polls_per_job"] = append(per["daemon.polls_per_job"], ratio(polls.sum(), float64(len(polls))))
		per["daemon.csv_kb_per_job"] = append(per["daemon.csv_kb_per_job"], ratio(float64(csvBytes)/1024, float64(len(polls))))
		per["persist.disk_mb"] = append(per["persist.disk_mb"], p.diskMB)
		for k, v := range hitRates(p.snapshot.Get) {
			per[k] = append(per[k], v)
		}

		s, err := localSuite(fresh)
		if err != nil {
			return err
		}
		wall, unitRuns, csvs, err := untracedRun(s, seq)
		if err != nil {
			return err
		}
		checkLocal(out, refs, seq, csvs)
		if s, err = localSuite(fresh); err != nil {
			return err
		}
		trRuns, l, err := traced(s, seq)
		if err != nil {
			return err
		}
		if err := sameRuns(trRuns, unitRuns); err != nil {
			out.mismatch("traced run differs from untraced: %v", err)
		}
		for k, v := range layerValues(l, wall) {
			per[k] = append(per[k], v)
		}
	}
	summarize(out, per)
	return nil
}

// localSuite is a one-worker suite on a fresh copy of the primed
// directory.
func localSuite(fresh func() (string, error)) (*core.Suite, error) {
	dir, err := fresh()
	if err != nil {
		return nil, err
	}
	s := newSuite(1)
	s.PersistDir = dir
	return s, nil
}
