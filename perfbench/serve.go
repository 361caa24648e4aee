package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fastflex/internal/experiment"
)

// serve_mixed drives the real ffserved binary over loopback: client
// connections in a closed loop of short single-arm inline-scenario jobs.
// Most jobs repeat a few hot shapes at varying seeds (pool hits that pay
// Fabric.Reset), a fixed share use multi-region shapes the pool has
// evicted (misses that pay a cold core.New), and a small fixed share are
// longer jobs cancelled once they run. The shares are chosen, not taken
// from observed traffic; README.md derives them from the measured cost
// of each path, and the traced run reports each path's share of ffserved
// CPU (serve.*_cpu_frac).
const (
	serveWorkers     = 2   // ffserved -workers
	servePool        = 8   // ffserved -pool: fewer entries than the miss shapes cycle through
	serveConns       = 1   // client connections; with one, the second vCPU takes detached runs and the client
	hotSeeds         = 6   // seeds per hot shape
	missShapes       = 8   // multi-region shapes cycled by miss jobs
	missEvery        = 10  // every 10th job of a connection is a miss
	cancelEvery      = 100 // every 100th job of a connection is cancelled
	setupRounds      = 15  // ffserved starts timed for setup_s
	pollEvery        = 2 * time.Millisecond
	jobHorizonSec    = 2
	jobAttackSec     = 1.5 // the attack's last half second keeps a job's sim short
	cancelHorizonSec = 5
)

// jobShape is one inline scenario. request renders it for the HTTP API
// and config for the in-process reference run; both describe one run.
type jobShape struct {
	name                           string
	kind                           string // "figure2" or "multiregion"
	regions, regionSize            int
	users, bots, servers           int
	defense                        experiment.Defense
	disableDropper, disableObfusc  bool
	durationSec, attackSec, scoutS float64
}

func (s jobShape) request(seed int64) []byte {
	type topology struct {
		Kind       string `json:"kind"`
		Regions    int    `json:"regions,omitempty"`
		RegionSize int    `json:"region_size,omitempty"`
		Users      int    `json:"users"`
		Bots       int    `json:"bots"`
		Servers    int    `json:"servers"`
	}
	req := map[string]any{
		"seeds": []int64{seed},
		"scenario": map[string]any{
			"topology": topology{s.kind, s.regions, s.regionSize, s.users, s.bots, s.servers},
			"attack":   map[string]float64{"start_sec": s.attackSec, "scout_every_sec": s.scoutS},
			"boosters": map[string]bool{"disable_dropper": s.disableDropper, "disable_obfuscation": s.disableObfusc},
			"defense":  s.defense.String(), "duration_sec": s.durationSec, "sample_every_sec": 0.1,
		},
	}
	b, _ := json.Marshal(req) // plain data: cannot fail
	return b
}

func (s jobShape) config(seed int64) experiment.Figure3Config {
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	cfg := experiment.Figure3Config{
		Seed: seed, Defense: s.defense, Duration: sec(s.durationSec),
		AttackStart: sec(s.attackSec), ScoutEvery: sec(s.scoutS), SampleEvery: sec(0.1),
		Users: s.users, Bots: s.bots, Servers: s.servers,
		DisableDropper: s.disableDropper, DisableObfuscation: s.disableObfusc,
	}
	if s.kind == "multiregion" {
		cfg.LargeRegions, cfg.RegionSize = s.regions, s.regionSize
	}
	return cfg
}

func hotShapes() []jobShape {
	base := jobShape{kind: "figure2", users: 8, bots: 40, servers: 8,
		durationSec: jobHorizonSec, attackSec: jobAttackSec, scoutS: 0.5}
	var out []jobShape
	for i, v := range []struct {
		d      experiment.Defense
		dr, ob bool
	}{
		{experiment.DefenseFastFlex, false, false}, {experiment.DefenseNone, false, false},
		{experiment.DefenseFastFlex, true, false}, {experiment.DefenseFastFlex, false, true},
	} {
		s := base
		s.name = fmt.Sprintf("hot%d", i)
		s.defense, s.disableDropper, s.disableObfusc = v.d, v.dr, v.ob
		out = append(out, s)
	}
	return out
}

func missShape(i int) jobShape {
	return jobShape{name: fmt.Sprintf("miss%d", i), kind: "multiregion", regions: 2, regionSize: 3 + i,
		users: 8, bots: 16, servers: 4, defense: experiment.DefenseFastFlex,
		durationSec: jobHorizonSec, attackSec: jobAttackSec, scoutS: 0.5}
}

// cancelShape has its own fabric key, so its detached runs never hold a
// hot shape's fabric.
func cancelShape() jobShape {
	return jobShape{name: "cancel", kind: "figure2", users: 6, bots: 40, servers: 8,
		defense: experiment.DefenseFastFlex, durationSec: cancelHorizonSec, attackSec: 0.5, scoutS: 0.5}
}

// serveJob is one job of the deterministic per-connection sequence.
type serveJob struct {
	shape  jobShape
	seed   int64
	cancel bool
	miss   bool
}

// hotPerConn is how many hot shapes each connection cycles.
const hotPerConn = 4 / serveConns

// jobAt returns connection conn's j-th job for the workload seed. Each
// connection owns disjoint hot shapes and miss shapes, so its own jobs
// never race another connection for one pooled fabric.
func jobAt(seed int64, conn, j int) serveJob {
	hot := hotShapes()
	switch {
	case j%cancelEvery == cancelEvery-1:
		return serveJob{shape: cancelShape(), seed: simSeed(seed, 1000+j), cancel: true}
	case j%missEvery == missEvery-1:
		k := conn + serveConns*((j/missEvery)%(missShapes/serveConns))
		return serveJob{shape: missShape(k), seed: simSeed(seed, 500+k), miss: true}
	}
	h := conn + serveConns*(j%hotPerConn)
	return serveJob{shape: hot[h], seed: hotSeed(seed, h, j/hotPerConn)}
}

// tracedJob alternates blocks of hotPerConn*hotSeeds jobs, so traced and
// untraced jobs cover the same hot shapes and seeds.
func tracedJob(j int) bool { return (j/(hotPerConn*hotSeeds))%2 == 1 }

func hotSeed(seed int64, shape, i int) int64 { return simSeed(seed, 100+shape*hotSeeds+i%hotSeeds) }

// refRun is the in-process reference for one (shape, seed): the headline
// metrics the served result must carry and the exact counters of the work.
type refRun struct {
	metrics map[string]float64
	cnt     counters
	setup   time.Duration
	armSim  time.Duration
	hit     bool
}

type refKey struct {
	shape string
	seed  int64
}

// references runs every hot (shape, seed) and every miss shape once in
// process, through a cache so hot shapes reset like pool hits. It also
// runs one cancel job to its horizon, which is what a cancelled job
// costs while the worker detaches from it; that run is returned apart,
// as its result is never served.
func references(seed int64) (map[refKey]*refRun, *refRun, error) {
	refs := make(map[refKey]*refRun)
	cache := experiment.NewFabricCache(len(hotShapes()) + missShapes + 1)
	add := func(s jobShape, sd int64) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("reference %s seed %d panicked: %v", s.name, sd, p)
			}
		}()
		src := &fabricTracer{inner: cache}
		cfg := s.config(sd)
		cfg.Fabrics = src
		res := experiment.Figure3(cfg)
		name := s.defense.String()
		a := src.arms[0]
		refs[refKey{s.name, sd}] = &refRun{
			metrics: map[string]float64{"attack_mean_" + name: res.AttackMean,
				"degraded_" + name: res.FractionDegraded, "stable_mbps_" + name: res.StableMean * 8 / 1e6},
			cnt: src.cnt, setup: res.SetupWall, armSim: a.end.Sub(a.start) - res.SetupWall, hit: a.Hit,
		}
		return nil
	}
	for i, s := range hotShapes() {
		for k := 0; k < hotSeeds; k++ {
			if err := add(s, hotSeed(seed, i, k)); err != nil {
				return nil, nil, err
			}
		}
	}
	for k := 0; k < missShapes; k++ {
		if err := add(missShape(k), simSeed(seed, 500+k)); err != nil {
			return nil, nil, err
		}
	}
	c := jobAt(seed, 0, cancelEvery-1)
	if err := add(c.shape, c.seed); err != nil {
		return nil, nil, err
	}
	cancel := refs[refKey{c.shape.name, c.seed}]
	delete(refs, refKey{c.shape.name, c.seed})
	return refs, cancel, nil
}

// server is one ffserved process.
type server struct {
	cmd  *exec.Cmd
	base string
	gc   *gcTrace
	done chan struct{}
}

// gcTrace counts GODEBUG=gctrace=1 lines from ffserved's stderr.
type gcTrace struct {
	mu     sync.Mutex
	cycles int
	pct    float64 // share of CPU in GC since start, from the last line
}

func (g *gcTrace) read(rd io.Reader) {
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || f[0] != "gc" {
			continue
		}
		g.mu.Lock()
		g.cycles++
		if v, err := strconv.ParseFloat(strings.TrimSuffix(f[3], "%:"), 64); err == nil {
			g.pct = v
		}
		g.mu.Unlock()
	}
}

func (g *gcTrace) snapshot() (int, float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cycles, g.pct
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches ffserved and waits until /healthz answers.
func startServer(bin string, trace bool, client *http.Client) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(serveWorkers),
		"-pool", strconv.Itoa(servePool), "-drain-grace", "1s")
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Env = os.Environ()
	var stderr io.ReadCloser
	if trace {
		s.cmd.Env = append(s.cmd.Env, "GODEBUG=gctrace=1")
		s.gc = &gcTrace{}
		if stderr, err = s.cmd.StderrPipe(); err != nil {
			return nil, err
		}
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ffserved: %w", err)
	}
	go func() {
		if stderr != nil {
			s.gc.read(stderr)
		}
		s.cmd.Wait() //nolint:errcheck // exit status is expected to be a signal
		close(s.done)
	}()
	for t0 := time.Now(); ; time.Sleep(time.Millisecond) {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("ffserved exited before becoming healthy")
		default:
		}
		if time.Since(t0) > 20*time.Second {
			s.stop()
			return nil, fmt.Errorf("ffserved not healthy after 20s: %v", err)
		}
	}
}

// stop sends SIGTERM, and SIGKILL if the process has not exited within
// ten seconds, then waits for it.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck
		<-s.done
	}
}

func (s *server) metrics(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// jobStatus is the subset of ffserved's job status the client reads.
type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	WallMS   float64    `json:"wall_ms"`
	Error    string     `json:"error"`
}

// jobResult is one job as the client observed it.
type jobResult struct {
	Conn     int       `json:"conn"`
	Index    int       `json:"index"`
	Shape    string    `json:"shape"`
	Seed     int64     `json:"seed"`
	Traced   bool      `json:"traced"`
	StartNS  int64     `json:"start_ns"`
	PostNS   int64     `json:"post_ns"` // POST returned
	DoneNS   int64     `json:"done_ns"` // terminal state observed
	EndNS    int64     `json:"end_ns"`  // result body received
	Polls    int       `json:"polls"`   // status requests made
	Status   jobStatus `json:"status"`  // last status seen
	Problem  string    `json:"problem,omitempty"`
	latency  time.Duration
	body     []byte
	kind     serveJob
	canceled bool
}

type client struct {
	http *http.Client
	base string
	t0   time.Time
}

func (c *client) status(id string) (jobStatus, error) {
	var st jobStatus
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitFor polls until the job's state satisfies ok.
func (c *client) waitFor(jr *jobResult, ok func(string) bool) error {
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(pollEvery) {
		st, err := c.status(jr.Status.ID)
		jr.Polls++
		if err != nil {
			return err
		}
		jr.Status = st
		if ok(st.State) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after 60s", st.ID, st.State)
		}
	}
}

func terminal(s string) bool { return s == "done" || s == "failed" || s == "canceled" }

// do runs one job to completion: POST, poll, fetch the result (or cancel
// once running and wait for canceled).
func (c *client) do(job serveJob) *jobResult {
	jr := &jobResult{Shape: job.shape.name, Seed: job.seed, kind: job}
	start := time.Now()
	jr.StartNS = int64(start.Sub(c.t0))
	fail := func(format string, args ...any) *jobResult {
		jr.Problem = fmt.Sprintf("%s seed %d: ", job.shape.name, job.seed) + fmt.Sprintf(format, args...)
		jr.latency = time.Since(start)
		return jr
	}
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(job.shape.request(job.seed)))
	if err != nil {
		return fail("submit: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fail("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &jr.Status); err != nil {
		return fail("submit reply: %v", err)
	}
	jr.PostNS = int64(time.Since(c.t0))
	if job.cancel {
		if err := c.waitFor(jr, func(s string) bool { return s != "queued" }); err != nil {
			return fail("%v", err)
		}
		req, _ := http.NewRequest(http.MethodDelete, c.base+"/v1/jobs/"+jr.Status.ID, nil)
		resp, err := c.http.Do(req)
		if err != nil {
			return fail("cancel: %v", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if err := c.waitFor(jr, terminal); err != nil {
			return fail("%v", err)
		}
		jr.DoneNS = int64(time.Since(c.t0))
		jr.latency = time.Since(start)
		jr.EndNS = int64(time.Since(c.t0))
		if jr.Status.State != "canceled" {
			return fail("cancelled job ended %s", jr.Status.State)
		}
		jr.canceled = true
		return jr
	}
	if err := c.waitFor(jr, terminal); err != nil {
		return fail("%v", err)
	}
	jr.DoneNS = int64(time.Since(c.t0))
	if jr.Status.State != "done" {
		return fail("job ended %s: %s", jr.Status.State, jr.Status.Error)
	}
	resp, err = c.http.Get(c.base + "/v1/jobs/" + jr.Status.ID + "/result")
	if err != nil {
		return fail("result: %v", err)
	}
	jr.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	jr.latency = time.Since(start)
	jr.EndNS = int64(time.Since(c.t0))
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail("result: HTTP %d: %v", resp.StatusCode, err)
	}
	return jr
}

// bodyChecker verifies served results: byte-identical across repeats of
// one (shape, seed), and carrying the reference run's headline metrics.
type bodyChecker struct {
	refs  map[refKey]*refRun
	first map[refKey][]byte
}

func (b *bodyChecker) check(jr *jobResult) string {
	k := refKey{jr.Shape, jr.Seed}
	ref := b.refs[k]
	if ref == nil {
		return fmt.Sprintf("%s seed %d: no reference run", jr.Shape, jr.Seed)
	}
	if prev, ok := b.first[k]; ok {
		if !bytes.Equal(prev, jr.body) {
			return fmt.Sprintf("%s seed %d: result body differs from an earlier job of the same spec", jr.Shape, jr.Seed)
		}
		return ""
	}
	var p struct {
		Runs []struct {
			Seed    int64              `json:"seed"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"runs"`
		ShapeErrors []string `json:"shape_errors"`
	}
	if err := json.Unmarshal(jr.body, &p); err != nil {
		return fmt.Sprintf("%s seed %d: decoding result: %v", jr.Shape, jr.Seed, err)
	}
	if len(p.Runs) != 1 || p.Runs[0].Seed != jr.Seed || len(p.ShapeErrors) > 0 {
		return fmt.Sprintf("%s seed %d: unexpected result shape: %d runs, shape errors %v", jr.Shape, jr.Seed, len(p.Runs), p.ShapeErrors)
	}
	if got, want := fingerprint(p.Runs[0].Metrics), fingerprint(ref.metrics); got != want {
		return fmt.Sprintf("%s seed %d: served metrics %s, in-process run gives %s", jr.Shape, jr.Seed, got, want)
	}
	b.first[k] = jr.body
	return ""
}

func runServeMixed(o *options, r *report) error {
	if o.ffserved == "" {
		return fmt.Errorf("-ffserved is required")
	}
	fmt.Fprintf(o.out, "workload serve_mixed: ffserved -workers %d -pool %d, client connections=%d, %gs jobs, seed %d\n",
		serveWorkers, servePool, serveConns, float64(jobHorizonSec), o.seed)
	refs, cancelRef, err := references(o.seed)
	if err != nil {
		return err
	}
	chk := &bodyChecker{refs: refs, first: make(map[refKey][]byte)}
	hc := &http.Client{Timeout: 60 * time.Second}
	t0 := time.Now()
	cl := &client{http: hc, t0: t0}

	// Setup: start → healthy → one warm-up job per hot shape done.
	var setups []float64
	var srv *server
	for round := 0; round < setupRounds; round++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		if srv, err = startServer(o.ffserved, o.trace, hc); err != nil {
			return err
		}
		cl.base = srv.base
		var wg sync.WaitGroup
		warm := make([]*jobResult, len(hotShapes()))
		for i, s := range hotShapes() {
			wg.Add(1)
			go func(i int, s jobShape) {
				defer wg.Done()
				warm[i] = cl.do(serveJob{shape: s, seed: hotSeed(o.seed, i, 0)})
			}(i, s)
		}
		wg.Wait()
		setups = append(setups, time.Since(start).Seconds())
		for _, jr := range warm {
			if jr.Problem == "" {
				jr.Problem = chk.check(jr)
			}
			r.op(jr.Problem)
		}
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	pid := srv.cmd.Process.Pid
	m0, err := srv.metrics(hc)
	if err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	cpu0, _ := procCPU(pid)
	gc0 := 0
	if srv.gc != nil {
		gc0, _ = srv.gc.snapshot()
	}

	// Measured closed loop.
	loopStart := time.Now()
	deadline := o.deadline(loopStart)
	perConn := make([][]*jobResult, serveConns)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn := &client{http: &http.Client{Timeout: 60 * time.Second,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}, base: srv.base, t0: t0}
			defer conn.http.CloseIdleConnections()
			for j := 0; j == 0 || (o.trace && j < 2*hotPerConn*hotSeeds) || time.Now().Before(deadline); j++ {
				jr := conn.do(jobAt(o.seed, c, j))
				jr.Conn, jr.Index, jr.Traced = c, j, o.trace && tracedJob(j)
				perConn[c] = append(perConn[c], jr)
			}
		}(c)
	}
	wg.Wait()
	loopWall := time.Since(loopStart)
	cpu1, _ := procCPU(pid)
	m1, err := srv.metrics(hc)
	if err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	rss, _ := procStatus(pid, "VmHWM")
	gc1, gcPct := 0, 0.0
	if srv.gc != nil {
		gc1, gcPct = srv.gc.snapshot()
	}

	var lat, tracedLat, untracedLat, walls, queueWait, runMS, overhead []float64
	var done, canceled int
	var pkts uint64
	for _, jobs := range perConn {
		for _, jr := range jobs {
			if jr.Problem == "" && !jr.canceled {
				jr.Problem = chk.check(jr)
			}
			r.op(jr.Problem)
			if jr.Traced {
				r.span(jr)
			}
			if jr.kind.cancel && jr.Problem == "" {
				canceled++
				continue
			}
			if jr.Problem != "" {
				lat = append(lat, math.Inf(1))
				continue
			}
			l := ms(jr.latency)
			lat = append(lat, l)
			if !jr.kind.miss {
				if jr.Traced {
					tracedLat = append(tracedLat, l)
				} else {
					untracedLat = append(untracedLat, l)
				}
			}
			done++
			pkts += refs[refKey{jr.Shape, jr.Seed}].cnt.Pkts
			st := jr.Status
			walls = append(walls, st.WallMS/1000)
			queueWait = append(queueWait, ms(st.Started.Sub(st.Created)))
			runMS = append(runMS, ms(st.Finished.Sub(*st.Started)))
			overhead = append(overhead, l-ms(st.Finished.Sub(st.Created)))
		}
	}
	if done == 0 {
		return fmt.Errorf("no job completed")
	}

	pct, tail := tailPercentile(lat)
	r.set("run_wall_s", median(walls), "s", len(walls), "server-side run wall per job")
	r.set("pkts_per_s", float64(pkts)/loopWall.Seconds(), "pkt/s", done, "reference pipeline passes of completed jobs")
	r.set("setup_s", median(setups), "s", len(setups), fmt.Sprintf("max=%.4g", quantile(setups, 1)))
	r.set("job_p50_ms", median(lat), "ms", len(lat), "POST to result body")
	r.set("job_p99_ms", quantile(lat, 0.99), "ms", len(lat), fmt.Sprintf("p%g=%.4g (highest with >=10 beyond)", pct, tail))
	r.set("jobs_per_s", float64(done)/loopWall.Seconds(), "1/s", done, "")
	r.set("peak_rss_mb", rss, "MiB", 1, "ffserved VmHWM")

	if !o.trace {
		return nil
	}
	// Probes and in-process layers run on an idle machine: stop ffserved,
	// and with it any run a cancel detached.
	srv.stop()
	srv = nil
	d := func(name string) float64 { return m1[name] - m0[name] }
	runs := d("ffserved_runs_total")
	hits, misses := d("ffserved_engine_pool_hits_total"), d("ffserved_engine_pool_misses_total")
	r.set("serve.queue_wait_ms", median(queueWait), "ms", len(queueWait), "started - created")
	r.set("serve.run_ms", median(runMS), "ms", len(runMS), "finished - started")
	r.set("serve.client_overhead_ms", median(overhead), "ms", len(overhead), "client latency - (finished - created)")
	r.set("serve.pool_hit_frac", ratio(hits, hits+misses), "ratio", int(hits+misses), "")
	r.set("serve.pool_evictions", d("ffserved_engine_pool_evictions_total"), "count", int(hits+misses), "")
	r.set("serve.runs_detached", d("ffserved_runs_detached_total"), "count", int(runs), "")
	r.set("serve.cpu_ms_per_job", ratio(ms(cpu1-cpu0), float64(done)), "ms", done, "ffserved CPU / completed jobs")
	r.set("go.alloc_mb_per_run", ratio(d("ffserved_run_alloc_bytes_total")/(1<<20), runs), "MiB", int(runs), "ffserved")
	r.set("go.gc_cycles_per_run", ratio(float64(gc1-gc0), runs), "count", int(runs), "ffserved gctrace")
	r.set("go.gc_cpu_frac", gcPct/100, "ratio", 1, "ffserved gctrace, whole process")
	r.set("go.cpu_util", (cpu1-cpu0).Seconds()/loopWall.Seconds(), "ratio", 1, "ffserved CPU / wall")
	r.set("trace.overhead_ms", median(tracedLat)-median(untracedLat), "ms", len(tracedLat),
		"traced minus untraced hot-job latency; both are handled alike, so this is noise")
	return serveLayers(r, refs, loopCost{hits, misses, float64(canceled), ms(cpu1 - cpu0), ms(cancelRef.armSim)})
}

// loopCost is what the measured loop asked of ffserved: pool hits and
// misses, cancelled jobs, the server's CPU time, and the in-process run
// time of one cancel job, which its detached run burns.
type loopCost struct {
	hits, misses, canceled, cpuMS, cancelRunMS float64
}

// serveLayers reports the simulation layers for the job universe from the
// in-process reference runs: exact counters summed over every hot and miss
// (shape, seed), and build/reset/sim times per run. It also weighs each
// service path by its share of ffserved CPU over the loop: the loop's
// count of the path times its in-process cost.
func serveLayers(r *report, refs map[refKey]*refRun, lc loopCost) error {
	var c counters
	var builds, resets, armSim []float64
	for _, ref := range refs {
		c.add(ref.cnt)
		if ref.hit {
			resets = append(resets, ms(ref.setup))
			armSim = append(armSim, ms(ref.armSim))
		} else {
			builds = append(builds, ms(ref.setup))
		}
	}
	r.set("core.build_ms", median(builds), "ms", len(builds), "SetupWall of missed checkouts, in-process")
	r.set("core.reset_ms", median(resets), "ms", len(resets), "SetupWall of hits, in-process")
	r.set("experiment.arm_sim_ms", median(armSim), "ms", len(armSim), "hot jobs, in-process")
	r.set("serve.reset_cpu_frac", ratio(lc.hits*median(resets), lc.cpuMS), "ratio", int(lc.hits), "pool hits x core.reset_ms / ffserved CPU")
	r.set("serve.build_cpu_frac", ratio(lc.misses*median(builds), lc.cpuMS), "ratio", int(lc.misses), "pool misses x core.build_ms / ffserved CPU")
	r.set("serve.cancel_cpu_frac", ratio(lc.canceled*lc.cancelRunMS, lc.cpuMS), "ratio", int(lc.canceled),
		fmt.Sprintf("cancelled jobs x %.4g ms cancel-job run / ffserved CPU", lc.cancelRunMS))
	c.report(r, len(refs), "summed over the job universe")
	bt := experiment.BuildFig3Topology(hotShapes()[0].config(1))
	p, err := runProbes(len(bt.G.Links) + len(bt.G.Hosts()))
	if err != nil {
		return err
	}
	p.report(r, c, float64(len(refs)), median(armSim))
	return nil
}
