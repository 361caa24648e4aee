package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fastflex/internal/experiment"
)

// tinyScenario is a sub-second Figure-3 scenario: small enough that API
// tests stay fast, complete enough that the whole pipeline (topology
// build, attack, sampling, result rendering) runs.
func tinyScenario() map[string]any {
	return map[string]any{
		"scenario": map[string]any{
			"topology":     map[string]any{"users": 2, "bots": 4, "servers": 2},
			"attack":       map[string]any{"start_sec": 1},
			"defense":      "undefended",
			"duration_sec": 3,
		},
	}
}

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close(2 * time.Second)
	})
	return ts, m
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, out
}

func submit(t *testing.T, ts *httptest.Server, body any) string {
	t.Helper()
	code, buf := doJSON(t, "POST", ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d: %s", code, buf)
	}
	var st JobStatus
	if err := json.Unmarshal(buf, &st); err != nil {
		t.Fatalf("unmarshal status: %v", err)
	}
	return st.ID
}

func waitState(t *testing.T, ts *httptest.Server, id string, want JobState, within time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		code, buf := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("status %s: got %d: %s", id, code, buf)
		}
		var st JobStatus
		if err := json.Unmarshal(buf, &st); err != nil {
			t.Fatalf("unmarshal status: %v", err)
		}
		if st.State == want {
			return st
		}
		if terminal(st.State) || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	code, buf := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result %s: got %d: %s", id, code, buf)
	}
	return buf
}

// sleepDef returns a seeded experiment that blocks for d, for scheduling
// tests that should not pay for a real simulation.
func sleepDef(id string, d time.Duration) experiment.Def {
	return experiment.Def{
		ID: id, Desc: "test sleeper", Seeded: true,
		Run: func(seed int64) *experiment.Result {
			time.Sleep(d)
			r := &experiment.Result{Name: id}
			r.Metric("slept_sec", d.Seconds())
			return r
		},
	}
}

func TestSubmitPollResult(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	id := submit(t, ts, tinyScenario())
	st := waitState(t, ts, id, StateDone, 30*time.Second)
	if st.RunsDone != 1 || st.RunsTotal != 1 {
		t.Errorf("runs done/total = %d/%d, want 1/1", st.RunsDone, st.RunsTotal)
	}
	var payload ResultPayload
	if err := json.Unmarshal(getResult(t, ts, id), &payload); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if payload.Experiment != "scenario" {
		t.Errorf("experiment = %q, want scenario", payload.Experiment)
	}
	if len(payload.Runs) != 1 || payload.Runs[0].Seed != 1 {
		t.Fatalf("runs = %+v, want one seed-1 run", payload.Runs)
	}
	if !strings.Contains(payload.Runs[0].Text, "Figure 3 (undefended)") {
		t.Errorf("result text missing the arm header:\n%s", payload.Runs[0].Text)
	}
	if _, ok := payload.Runs[0].Metrics["attack_mean_undefended"]; !ok {
		t.Errorf("metrics missing attack_mean_undefended: %v", payload.Runs[0].Metrics)
	}
}

// TestByteIdenticalThroughPool is the serving determinism gate: the same
// spec submitted twice — the second run over the warm pooled topology —
// must return byte-identical result payloads.
func TestByteIdenticalThroughPool(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	id1 := submit(t, ts, tinyScenario())
	waitState(t, ts, id1, StateDone, 30*time.Second)
	id2 := submit(t, ts, tinyScenario())
	st2 := waitState(t, ts, id2, StateDone, 30*time.Second)

	if st2.PoolHits == 0 {
		t.Errorf("second identical job got no engine-pool hit (hits=%d misses=%d)", st2.PoolHits, st2.PoolMisses)
	}
	r1, r2 := getResult(t, ts, id1), getResult(t, ts, id2)
	if !bytes.Equal(r1, r2) {
		t.Errorf("same spec, different result bytes:\n--- first\n%s\n--- second\n%s", r1, r2)
	}
}

// TestShardsOmittedMeansOne: a scenario without "shards" and one with
// "shards": 1 are the same run — one pool key (the second job reuses the
// first one's warm fabric) and byte-identical result payloads.
func TestShardsOmittedMeansOne(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	id1 := submit(t, ts, tinyScenario())
	waitState(t, ts, id1, StateDone, 30*time.Second)
	one := tinyScenario()
	one["scenario"].(map[string]any)["shards"] = 1
	id2 := submit(t, ts, one)
	st2 := waitState(t, ts, id2, StateDone, 30*time.Second)

	if st2.PoolHits == 0 || st2.PoolMisses != 0 {
		t.Errorf("shards=1 job missed the omitted-shards fabric (hits=%d misses=%d)", st2.PoolHits, st2.PoolMisses)
	}
	r1, r2 := getResult(t, ts, id1), getResult(t, ts, id2)
	if !bytes.Equal(r1, r2) {
		t.Errorf("shards omitted vs 1, different result bytes:\n--- omitted\n%s\n--- shards=1\n%s", r1, r2)
	}
}

// TestByteIdenticalConcurrent submits the same spec from many tenants at
// once; all runs share one warm topology and must agree byte-for-byte.
// (-race in CI makes this the data-race gate for topology sharing.)
func TestByteIdenticalConcurrent(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 4})
	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, ts, tinyScenario())
		}(i)
	}
	wg.Wait()
	var first []byte
	for _, id := range ids {
		waitState(t, ts, id, StateDone, 60*time.Second)
		buf := getResult(t, ts, id)
		if first == nil {
			first = buf
		} else if !bytes.Equal(first, buf) {
			t.Errorf("concurrent identical specs disagree:\n--- first\n%s\n--- other\n%s", first, buf)
		}
	}
}

// TestAPIMatchesFfbench pins the API to the ffbench path: a registry
// experiment run through the daemon renders the exact text the registry
// definition produces for the same seed.
func TestAPIMatchesFfbench(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig3 short-variant run; skipped with -short")
	}
	ts, _ := newTestServer(t, Config{Workers: 2})
	id := submit(t, ts, map[string]any{"experiment": "fig3", "short": true, "seeds": []int64{1}})
	waitState(t, ts, id, StateDone, 5*time.Minute)
	var payload ResultPayload
	if err := json.Unmarshal(getResult(t, ts, id), &payload); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}

	var want string
	for _, d := range experiment.Registry() {
		if d.ID == "fig3" {
			want = d.ShortRun(1).String()
		}
	}
	if got := payload.Runs[0].Text; got != want {
		t.Errorf("API result text diverges from the registry run:\n--- api\n%s\n--- registry\n%s", got, want)
	}
	if st, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil); st != http.StatusOK {
		t.Errorf("status after done: %d", st)
	}
}

// TestPanicIsolation proves one bad job cannot take the daemon down: the
// panicking run lands in a failed-job record and later jobs still serve.
func TestPanicIsolation(t *testing.T) {
	defs := append(experiment.Registry(),
		experiment.Def{ID: "boom", Desc: "always panics", Seeded: true,
			Run: func(int64) *experiment.Result { panic("injected failure") }},
		sleepDef("nap", 10*time.Millisecond))
	ts, m := newTestServer(t, Config{Workers: 2, Defs: defs})

	id := submit(t, ts, map[string]any{"experiment": "boom"})
	st := waitState(t, ts, id, StateFailed, 10*time.Second)
	if !strings.Contains(st.Error, "panicked") || !strings.Contains(st.Error, "injected failure") {
		t.Errorf("failed-job error %q does not describe the panic", st.Error)
	}
	if code, buf := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of failed job: got %d (%s), want 409", code, buf)
	}

	// The daemon survived: workers still serve and the panic was counted.
	id2 := submit(t, ts, map[string]any{"experiment": "nap"})
	waitState(t, ts, id2, StateDone, 10*time.Second)
	if met := m.MetricsText(); !strings.Contains(met, "ffserved_panics_recovered_total 1") {
		t.Errorf("metrics do not count the recovered panic:\n%s", met)
	}
}

// TestConcurrentJobs holds 8 jobs open at once behind a barrier, proving
// the pool genuinely runs that many simulations concurrently.
func TestConcurrentJobs(t *testing.T) {
	const n = 8
	started := make(chan struct{}, n)
	release := make(chan struct{})
	barrier := experiment.Def{
		ID: "barrier", Desc: "blocks until released", Seeded: true,
		Run: func(int64) *experiment.Result {
			started <- struct{}{}
			<-release
			return &experiment.Result{Name: "barrier"}
		},
	}
	ts, m := newTestServer(t, Config{Workers: n, Defs: append(experiment.Registry(), barrier)})

	ids := make([]string, n)
	for i := range ids {
		ids[i] = submit(t, ts, map[string]any{"experiment": "barrier"})
	}
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d jobs started concurrently", i, n)
		}
	}
	if met := m.MetricsText(); !strings.Contains(met, fmt.Sprintf("ffserved_jobs_inflight %d", n)) {
		t.Errorf("metrics do not show %d in-flight jobs:\n%s", n, met)
	}
	close(release)
	for _, id := range ids {
		waitState(t, ts, id, StateDone, 10*time.Second)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	defs := append(experiment.Registry(), sleepDef("slow", 30*time.Second))
	ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Defs: defs})

	running := submit(t, ts, map[string]any{"experiment": "slow"})
	waitState(t, ts, running, StateRunning, 5*time.Second)
	queued := submit(t, ts, map[string]any{"experiment": "slow"})

	// Cancel the queued job: it must finish instantly, never running.
	code, buf := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+queued, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel queued: got %d: %s", code, buf)
	}
	st := waitState(t, ts, queued, StateCanceled, 2*time.Second)
	if st.Started != nil {
		t.Errorf("canceled queued job has a start time: %+v", st)
	}

	// Cancel the running job: the worker detaches well before the 30 s
	// sleep finishes, freeing the slot for new work.
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+running, nil)
	waitState(t, ts, running, StateCanceled, 2*time.Second)
	quick := submit(t, ts, tinyScenario())
	waitState(t, ts, quick, StateDone, 30*time.Second)
}

func TestJobTimeout(t *testing.T) {
	defs := append(experiment.Registry(), sleepDef("slow", 30*time.Second))
	ts, m := newTestServer(t, Config{Workers: 1, Defs: defs})
	id := submit(t, ts, map[string]any{"experiment": "slow", "timeout_sec": 0.2})
	st := waitState(t, ts, id, StateFailed, 5*time.Second)
	if !strings.Contains(st.Error, "timed out") {
		t.Errorf("timeout error = %q", st.Error)
	}
	if met := m.MetricsText(); !strings.Contains(met, "ffserved_job_timeouts_total 1") {
		t.Errorf("metrics missing the timeout:\n%s", met)
	}
}

func TestQueueFullAndDrain(t *testing.T) {
	defs := append(experiment.Registry(), sleepDef("slow", 300*time.Millisecond))
	ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Defs: defs})

	first := submit(t, ts, map[string]any{"experiment": "slow"})
	waitState(t, ts, first, StateRunning, 5*time.Second)
	second := submit(t, ts, map[string]any{"experiment": "slow"}) // fills the queue
	if code, buf := doJSON(t, "POST", ts.URL+"/v1/jobs", map[string]any{"experiment": "slow"}); code != http.StatusTooManyRequests {
		t.Fatalf("over-queue submit: got %d (%s), want 429", code, buf)
	}

	// Drain waits for both jobs, then refuses new work.
	code, buf := doJSON(t, "POST", ts.URL+"/v1/admin/drain?grace_sec=30", nil)
	if code != http.StatusOK {
		t.Fatalf("drain: got %d: %s", code, buf)
	}
	var reply struct {
		Drained  bool `json:"drained"`
		Canceled int  `json:"canceled"`
	}
	if err := json.Unmarshal(buf, &reply); err != nil || !reply.Drained || reply.Canceled != 0 {
		t.Fatalf("drain reply %s (err %v), want clean drain with zero canceled", buf, err)
	}
	waitState(t, ts, first, StateDone, time.Second)
	waitState(t, ts, second, StateDone, time.Second)
	if code, buf := doJSON(t, "POST", ts.URL+"/v1/jobs", tinyScenario()); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: got %d (%s), want 503", code, buf)
	}
	if _, buf := doJSON(t, "GET", ts.URL+"/healthz", nil); !strings.Contains(string(buf), "draining") {
		t.Errorf("healthz after drain: %s", buf)
	}
}

func TestValidation(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body map[string]any
		want string
	}{
		{"empty", map[string]any{}, "exactly one"},
		{"both", map[string]any{"experiment": "fig3", "scenario": map[string]any{}}, "exactly one"},
		{"unknown experiment", map[string]any{"experiment": "nope"}, "unknown experiment"},
		{"bad defense", map[string]any{"scenario": map[string]any{"defense": "magic"}}, "defense"},
		{"bad kind", map[string]any{"scenario": map[string]any{"topology": map[string]any{"kind": "torus"}}}, "topology.kind"},
		{"bad seeds", map[string]any{"experiment": "fig3", "seeds": []int64{0}}, "seeds must be >= 1"},
		{"oversize", map[string]any{"scenario": map[string]any{"topology": map[string]any{"users": 99999}}}, "capped"},
		{"unknown field", map[string]any{"experiment": "fig3", "bogus": 1}, "bogus"},
	}
	for _, c := range cases {
		code, buf := doJSON(t, "POST", ts.URL+"/v1/jobs", c.body)
		if code != http.StatusBadRequest || !strings.Contains(string(buf), c.want) {
			t.Errorf("%s: got %d %s, want 400 mentioning %q", c.name, code, buf, c.want)
		}
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/j999999", nil); code != http.StatusNotFound {
		t.Errorf("missing job: got %d, want 404", code)
	}
}

func TestListAndExperiments(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	id := submit(t, ts, tinyScenario())
	code, buf := doJSON(t, "GET", ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK || !strings.Contains(string(buf), id) {
		t.Errorf("list: got %d %s, want the submitted job", code, buf)
	}
	code, buf = doJSON(t, "GET", ts.URL+"/v1/experiments", nil)
	if code != http.StatusOK || !strings.Contains(string(buf), "fig3") {
		t.Errorf("experiments: got %d %s", code, buf)
	}
	waitState(t, ts, id, StateDone, 30*time.Second)
}

func TestMetricsShape(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	id := submit(t, ts, tinyScenario())
	waitState(t, ts, id, StateDone, 30*time.Second)
	_, buf := doJSON(t, "GET", ts.URL+"/metrics", nil)
	for _, series := range []string{
		"ffserved_jobs_total{state=\"done\"} 1",
		"ffserved_jobs_submitted_total 1",
		"ffserved_runs_total 1",
		"ffserved_engine_pool_misses_total 1",
		"ffserved_engine_pool_size 1",
		"ffserved_jobs_inflight 0",
		"ffserved_queue_depth 0",
		"ffserved_workers 1",
		"ffserved_run_wall_seconds_total",
		"ffserved_run_alloc_bytes_total",
		"ffserved_panics_recovered_total 0",
		"ffserved_uptime_seconds",
	} {
		if !strings.Contains(string(buf), series) {
			t.Errorf("metrics missing %q:\n%s", series, buf)
		}
	}
}

// tinyPoolShape is a sub-second single-arm run shape for direct pool
// tests; distinct user counts give distinct fabric keys.
func tinyPoolShape(p *enginePool, users int) experiment.Figure3Config {
	return experiment.Figure3Config{
		Defense: experiment.DefenseNone,
		Users:   users, Bots: 4, Servers: 2,
		Duration:    3 * time.Second,
		AttackStart: 1 * time.Second,
		Seed:        1,
		Fabrics:     p,
	}
}

// TestEnginePoolLRUEviction pins the lease pool's bound and its LRU
// policy: a repeatedly leased hot shape survives a cold newcomer because
// every checkin refreshes recency; the shape idle longest is evicted.
func TestEnginePoolLRUEviction(t *testing.T) {
	p := newEnginePool(2)
	a, b, c := tinyPoolShape(p, 2), tinyPoolShape(p, 3), tinyPoolShape(p, 4)
	experiment.Figure3(a) // miss: cold-build, check in     → idle [a]
	experiment.Figure3(b) // miss                           → idle [a b]
	experiment.Figure3(a) // hit: a becomes most recent     → idle [b a]
	experiment.Figure3(c) // miss; past the bound, b is LRU → idle [a c]
	st := p.stats()
	if st.size != 2 || st.evictions != 1 || st.misses != 3 || st.hits != 1 {
		t.Errorf("pool stats = %+v, want size 2, 1 eviction, 3 misses, 1 hit", st)
	}
	if st.resets != 4 || st.resetFailures != 0 {
		t.Errorf("pool stats = %+v, want every checkin reset cleanly (4 resets)", st)
	}
	if p.Checkout(a.FabricKey()) == nil {
		t.Errorf("hot shape was evicted; LRU must keep it resident")
	}
	if p.Checkout(b.FabricKey()) != nil {
		t.Errorf("least recently used shape survived eviction")
	}
}

// TestLeasedFabricNeverShared hammers one fabric key from several
// goroutines through a one-slot pool: at most one run holds the pooled
// fabric at a time, everyone else cold-builds. The simulation under each
// run is strictly single-threaded, so any double-lease is a data race the
// -race CI job catches; the stats assertions pin the lease bookkeeping.
func TestLeasedFabricNeverShared(t *testing.T) {
	p := newEnginePool(1)
	const goroutines, iters = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cfg := tinyPoolShape(p, 2)
				cfg.Seed = int64(g*iters + i + 1)
				experiment.Figure3(cfg)
			}
		}(g)
	}
	wg.Wait()
	st := p.stats()
	if st.hits+st.misses != goroutines*iters {
		t.Errorf("pool stats = %+v, want %d checkouts", st, goroutines*iters)
	}
	if st.leased != 0 {
		t.Errorf("%d leases still outstanding after every run checked in", st.leased)
	}
	if st.size > 1 || st.resetFailures != 0 {
		t.Errorf("pool stats = %+v, want <=1 idle fabric and clean resets", st)
	}
}

// runBenchJob submits one job and polls it to completion.
func runBenchJob(b *testing.B, m *Manager, req JobRequest) {
	b.Helper()
	st, err := m.Submit(req)
	if err != nil {
		b.Fatal(err)
	}
	for {
		s, err := m.Status(st.ID)
		if err != nil {
			b.Fatal(err)
		}
		if s.State == StateDone {
			return
		}
		if terminal(s.State) {
			b.Fatalf("job %s: %s (%s)", st.ID, s.State, s.Error)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkRepeatedJob measures same-spec repeated-job latency through
// the daemon — the warm-fabric number EXPERIMENTS.md quotes. "cold"
// jobs arrive at an empty pool (fresh manager per job) and build the
// ISP-scale fabric from scratch; "warm" jobs lease the pooled fabric a
// prior identical job checked in. Two horizons bracket the regimes: the
// 5 s job is sim-dominated (reuse trims only the setup slice), the 1 s
// job is the setup-heavy interactive shape where pooling pays most.
func BenchmarkRepeatedJob(b *testing.B) {
	specFor := func(durationSec float64) JobRequest {
		return JobRequest{Scenario: &ScenarioSpec{
			Topology: TopologySpec{Kind: "multiregion", Regions: 4, RegionSize: 10,
				Users: 16, Bots: 96, Servers: 8},
			Attack:      AttackSpec{StartSec: 0.5},
			Defense:     "undefended",
			DurationSec: durationSec,
		}}
	}
	for _, horizon := range []struct {
		name string
		sec  float64
	}{{"5s", 5}, {"1s", 1}} {
		req := specFor(horizon.sec)
		b.Run("cold/"+horizon.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewManager(Config{Workers: 1})
				runBenchJob(b, m, req)
				m.Close(time.Second)
			}
		})
		b.Run("warm/"+horizon.name, func(b *testing.B) {
			m := NewManager(Config{Workers: 1})
			runBenchJob(b, m, req) // prime the pool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runBenchJob(b, m, req)
			}
			b.StopTimer()
			m.Close(time.Second)
		})
	}
}

// TestUnseededRegistryJob runs a pure-table registry experiment (table1)
// through the API: multiple requested seeds collapse to one run.
func TestUnseededRegistryJob(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	id := submit(t, ts, map[string]any{"experiment": "table1", "seeds": []int64{1, 2, 3}})
	st := waitState(t, ts, id, StateDone, 30*time.Second)
	if st.RunsTotal != 1 {
		t.Errorf("unseeded job expanded to %d runs, want 1", st.RunsTotal)
	}
	var payload ResultPayload
	if err := json.Unmarshal(getResult(t, ts, id), &payload); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if !strings.Contains(payload.Runs[0].Text, "Figure 1(a)") {
		t.Errorf("table1 text unexpected:\n%s", payload.Runs[0].Text)
	}
}

// TestMultiSeedAggregates checks cross-seed aggregation on a fast def.
func TestMultiSeedAggregates(t *testing.T) {
	defs := append(experiment.Registry(),
		experiment.Def{ID: "coin", Desc: "seed-dependent metric", Seeded: true,
			Run: func(seed int64) *experiment.Result {
				r := &experiment.Result{Name: "coin"}
				r.Metric("seed_value", float64(seed))
				return r
			}})
	ts, _ := newTestServer(t, Config{Workers: 2, Defs: defs})
	id := submit(t, ts, map[string]any{"experiment": "coin", "seeds": []int64{1, 2, 3, 4}})
	st := waitState(t, ts, id, StateDone, 10*time.Second)
	if st.RunsTotal != 4 || st.RunsDone != 4 {
		t.Errorf("runs = %d/%d, want 4/4", st.RunsDone, st.RunsTotal)
	}
	var payload ResultPayload
	if err := json.Unmarshal(getResult(t, ts, id), &payload); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	agg, ok := payload.Aggregates["seed_value"]
	if !ok || agg.N != 4 || agg.Mean != 2.5 {
		t.Errorf("aggregates = %+v, want seed_value mean 2.5 over n=4", payload.Aggregates)
	}
}
