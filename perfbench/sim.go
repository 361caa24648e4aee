package main

import (
	"fmt"
	"runtime"
	"time"

	"fastflex/internal/core"
	"fastflex/internal/experiment"
	"fastflex/internal/topo"
)

// simWorkload is an in-process simulation workload: one Figure-3 scenario
// run back to back on warm fabrics.
type simWorkload struct {
	scenario string // Fig3Scenario id
	short    bool   // the cut-down CI horizon (30 s instead of 120 s)
	shards   int    // engine shard count
	compare  bool   // all three arms via Figure3Compare; else the FastFlex arm via Figure3
}

// lfa_packet: the packet hot path. K=1 has no cut-link barriers and setup
// is about 1% of wall, so eventsim, netsim and dataplane changes show here.
func runLFAPacket(o *options, r *report) error {
	return runSim(o, r, simWorkload{scenario: "fig3", shards: 1, compare: true})
}

// isp_sharded: the windowed engine doing real work (barriers, handoff
// rings, adaptive lookahead) with a cold multi-region build heavy enough
// to give setup_s weight.
func runISPSharded(o *options, r *report) error {
	return runSim(o, r, simWorkload{scenario: "fig3x", short: true, shards: 2})
}

func (w simWorkload) config(seed int64) experiment.Figure3Config {
	cfg, _ := experiment.Fig3Scenario(w.scenario, seed, w.short)
	cfg.Shards = w.shards
	return cfg
}

func (w simWorkload) arms() []experiment.Defense {
	if w.compare {
		return []experiment.Defense{experiment.DefenseNone, experiment.DefenseBaseline, experiment.DefenseFastFlex}
	}
	return []experiment.Defense{experiment.DefenseFastFlex}
}

// counters are the exact per-run work counters read off each arm's fabric
// at checkin, summed over the run's arms. They are deterministic per seed.
type counters struct {
	Events, Pkts, Hops, Delivered                                 uint64
	DropsQueue, DropsPipeline, DropsNoRoute, DropsDown, DropsLoss uint64
	PoolGets, PoolNews                                            uint64
	Windows, DedupEvictions, ModeChanges                          uint64
	SimTime                                                       time.Duration
}

func readCounters(f *core.Fabric) counters {
	n := f.Net
	c := counters{
		Events: n.EventsFired(), Pkts: n.PacketsProcessed(), Delivered: n.Delivered(),
		DropsQueue: n.DropsQueue(), DropsPipeline: n.DropsPipeline(), DropsNoRoute: n.DropsNoRoute(),
		DropsDown: n.DropsDown(), DropsLoss: n.DropsLoss(),
		Windows: n.Windows(), ModeChanges: uint64(len(f.ModeEvents())), SimTime: n.Now(),
	}
	c.PoolGets, c.PoolNews = n.PoolStats()
	for l := range n.G.Links {
		sent, _, _ := n.LinkStats(topo.LinkID(l))
		c.Hops += sent
	}
	for _, sw := range n.G.Switches() {
		c.DedupEvictions += n.Switch(sw).DedupEvictions()
	}
	return c
}

func (c *counters) add(o counters) {
	c.Events += o.Events
	c.Pkts += o.Pkts
	c.Hops += o.Hops
	c.Delivered += o.Delivered
	c.DropsQueue += o.DropsQueue
	c.DropsPipeline += o.DropsPipeline
	c.DropsNoRoute += o.DropsNoRoute
	c.DropsDown += o.DropsDown
	c.DropsLoss += o.DropsLoss
	c.PoolGets += o.PoolGets
	c.PoolNews += o.PoolNews
	c.Windows += o.Windows
	c.DedupEvictions += o.DedupEvictions
	c.ModeChanges += o.ModeChanges
	c.SimTime += o.SimTime
}

// report sets the counter-derived per-layer metrics; n is how many runs
// c sums over and note says what they are.
func (c counters) report(r *report, n int, note string) {
	f := func(v uint64) float64 { return float64(v) }
	r.set("eventsim.events", f(c.Events), "count", n, note)
	r.set("eventsim.events_per_pkt", ratio(f(c.Events), f(c.Pkts)), "ratio", n, "")
	r.set("netsim.pkts", f(c.Pkts), "count", n, "pipeline passes, "+note)
	r.set("netsim.hops", f(c.Hops), "count", n, "link transmissions, "+note)
	r.set("netsim.hops_per_pkt", ratio(f(c.Hops), f(c.Pkts)), "ratio", n, "")
	r.set("netsim.delivered", f(c.Delivered), "count", n, note)
	r.set("netsim.drops_queue", f(c.DropsQueue), "count", n, note)
	r.set("netsim.drops_pipeline", f(c.DropsPipeline), "count", n, note)
	r.set("netsim.drops_noroute", f(c.DropsNoRoute), "count", n, note)
	r.set("netsim.drops_down", f(c.DropsDown), "count", n, note)
	r.set("netsim.drops_loss", f(c.DropsLoss), "count", n, note)
	r.set("netsim.pool_new_frac", ratio(f(c.PoolNews), f(c.PoolGets)), "ratio", n, "")
	r.set("netsim.windows", f(c.Windows), "count", n, "barrier windows (0 on the serial engine), "+note)
	r.set("netsim.events_per_window", ratio(f(c.Events), f(c.Windows)), "ratio", n, "")
	r.set("netsim.lookahead_us", ratio(float64(c.SimTime)/1e3, f(c.Windows)), "us", n, "mean window width")
	r.set("dataplane.dedup_evictions", f(c.DedupEvictions), "count", n, note)
	r.set("mode.changes", f(c.ModeChanges), "count", n, note)
}

// armSpan is one arm's lease of a fabric: Checkout to Checkin.
type armSpan struct {
	Key        string `json:"key"`
	Hit        bool   `json:"hit"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	start, end time.Time
}

// fabricTracer is the benchmark's experiment.FabricSource: it wraps a
// FabricCache, records a span per arm and reads the exact counters off
// each fabric when the arm checks it back in. Arms of one run check out
// and in strictly one after another.
type fabricTracer struct {
	inner *experiment.FabricCache
	arms  []armSpan
	cnt   counters
}

func (t *fabricTracer) Checkout(key string) *experiment.WarmFabric {
	wf := t.inner.Checkout(key)
	t.arms = append(t.arms, armSpan{Key: key, Hit: wf != nil, start: time.Now()})
	return wf
}

func (t *fabricTracer) Checkin(wf *experiment.WarmFabric) {
	t.cnt.add(readCounters(wf.Fab))
	t.arms[len(t.arms)-1].end = time.Now()
	t.inner.Checkin(wf)
}

// simIter is one run of a sim workload.
type simIter struct {
	start, end time.Time
	wall       time.Duration
	setup      time.Duration // Result.SetupWall summed over arms
	metrics    map[string]float64
	events     uint64 // Result.Events, cross-checked against the tracer
	pkts       uint64
	src        *fabricTracer
	traced     bool
	alloc      uint64
	gcs        uint32
	cpu        time.Duration
}

func (it *simIter) armTime() time.Duration {
	var d time.Duration
	for _, a := range it.src.arms {
		d += a.end.Sub(a.start)
	}
	return d
}

// key is what must repeat exactly across runs of one seed. Packet-pool
// allocations are left out: a fabric's pool fills during its first run,
// so they differ between the first run and later ones by design.
func (it *simIter) key() string {
	c := it.src.cnt
	c.PoolNews = 0
	return fmt.Sprintf("%+v|%s", c, fingerprint(it.metrics))
}

// iterate runs the workload once through cache. Traced runs also take
// heap and CPU deltas; both kinds read the exact counters.
func (w simWorkload) iterate(cfg experiment.Figure3Config, cache *experiment.FabricCache, traced bool) (it *simIter, err error) {
	it = &simIter{src: &fabricTracer{inner: cache}, traced: traced}
	cfg.Fabrics = it.src
	var ms0, ms1 runtime.MemStats
	var cpu0 time.Duration
	if traced {
		runtime.ReadMemStats(&ms0)
		cpu0 = selfCPU()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v", p)
		}
	}()
	it.start = time.Now()
	if w.compare {
		res := experiment.Figure3Compare(cfg)
		it.metrics, it.events, it.pkts, it.setup = res.Metrics, res.Events, res.Packets, res.SetupWall
	} else {
		cfg.Defense = experiment.DefenseFastFlex
		res := experiment.Figure3(cfg)
		name := cfg.Defense.String()
		it.metrics = map[string]float64{
			"attack_mean_" + name: res.AttackMean, "degraded_" + name: res.FractionDegraded,
			"stable_mbps_" + name: res.StableMean * 8 / 1e6, "rolls": float64(res.Rolls),
		}
		it.events, it.pkts, it.setup = res.Events, res.Packets, res.SetupWall
	}
	it.end = time.Now()
	it.wall = it.end.Sub(it.start)
	if traced {
		it.cpu = selfCPU() - cpu0
		runtime.ReadMemStats(&ms1)
		it.alloc = ms1.TotalAlloc - ms0.TotalAlloc
		it.gcs = ms1.NumGC - ms0.NumGC
	}
	return it, nil
}

func runSim(o *options, r *report, w simWorkload) error {
	seed := simSeed(o.seed, 0)
	cfg := w.config(seed)
	arms := w.arms()
	fmt.Fprintf(o.out, "workload %s: %s short=%t, shards=%d, arms=%d, sim seed %d\n",
		o.workload, w.scenario, w.short, w.shards, len(arms), seed)

	// Setup: repeated 1 ms runs through an empty cache, each from a
	// collected heap with no other fabric set live, as in a fresh process.
	// Each pays the experiment's own topology build and cold core.New for
	// every arm; the median wall is setup_s. The last run's cache holds
	// the warm fabrics of the measured loop.
	short := cfg
	short.Duration = time.Millisecond
	var setups, perFabric []float64
	var cache *experiment.FabricCache
	for t0 := time.Now(); len(setups) < 9 || (time.Since(t0) < 2*time.Second && len(setups) < 40); {
		cache = nil
		runtime.GC()
		cache = experiment.NewFabricCache(0)
		it, err := w.iterate(short, cache, false)
		if err != nil {
			return fmt.Errorf("cold setup run: %w", err)
		}
		setups = append(setups, it.wall.Seconds())
		perFabric = append(perFabric, ms(it.setup)/float64(len(arms)))
	}

	// Measured loop on warm fabrics; the first run is the reference every
	// later one must repeat exactly. A traced pass alternates untraced and
	// traced runs so the two can be compared for overhead and counters.
	iters := []*simIter{}
	refKey := ""
	loopStart := time.Now()
	deadline := o.deadline(loopStart)
	// A run starts only if it would end less than half a run past the
	// deadline, so the loop stays close to its budget with long runs.
	var lastWall time.Duration
	for i := 0; i == 0 || (o.trace && i < 2) || time.Now().Add(lastWall/2).Before(deadline); i++ {
		it, err := w.iterate(cfg, cache, o.trace && i%2 == 1)
		if err != nil {
			r.op(err.Error())
			continue
		}
		if refKey == "" {
			refKey = it.key()
		}
		lastWall = it.wall
		problem := checkIter(it, refKey)
		for _, a := range it.src.arms {
			if !a.Hit && problem == "" {
				problem = "warm run missed the fabric cache for " + a.Key
			}
		}
		r.op(problem)
		iters = append(iters, it)
	}
	loopWall := time.Since(loopStart)
	if len(iters) == 0 {
		return fmt.Errorf("no run completed")
	}

	if w.compare {
		// The paper's qualitative claims over every run of this seed.
		var results []experiment.RunResult
		for _, it := range iters {
			results = append(results, experiment.RunResult{ID: w.scenario, Result: &experiment.Result{Metrics: it.metrics}})
		}
		bad := experiment.ShapeChecks(experiment.Aggregate(results))
		if len(bad) > 0 {
			r.op(fmt.Sprintf("shape checks: %v", bad))
		} else {
			r.op("")
		}
	}

	// End-to-end metrics, from the untraced runs.
	var walls, rates []float64
	for _, it := range iters {
		if it.traced {
			continue
		}
		walls = append(walls, it.wall.Seconds())
		rates = append(rates, float64(it.pkts)/it.wall.Seconds())
	}
	n := len(walls)
	r.set("run_wall_s", median(walls), "s", n, fmt.Sprintf("max=%.4g", quantile(walls, 1)))
	r.set("pkts_per_s", median(rates), "pkt/s", n, fmt.Sprintf("pkts/run=%d", iters[0].pkts))
	r.set("setup_s", median(setups), "s", len(setups), fmt.Sprintf("max=%.4g", quantile(setups, 1)))
	jobMS := make([]float64, n)
	for i, v := range walls {
		jobMS[i] = v * 1000
	}
	pct, tail := tailPercentile(jobMS)
	r.set("job_p50_ms", median(jobMS), "ms", n, "a job is one run")
	r.set("job_p99_ms", quantile(jobMS, 0.99), "ms", n, fmt.Sprintf("p%g=%.4g (highest with >=10 beyond)", pct, tail))
	r.set("jobs_per_s", float64(len(iters))/loopWall.Seconds(), "1/s", len(iters), "")
	if rss, ok := procStatus(0, "VmHWM"); ok {
		r.set("peak_rss_mb", rss, "MiB", 1, "")
	}
	fmt.Fprintf(o.out, "counters seed=%d %+v\n", seed, iters[0].src.cnt)

	if o.trace {
		return simLayers(o, r, w, cfg, iters, perFabric, median(walls))
	}
	return nil
}

// checkIter returns a failure description for a run whose exact counters
// or metrics differ from the reference key, or whose tracer disagrees
// with the experiment's own workload counters.
func checkIter(it *simIter, refKey string) string {
	if it.src.cnt.Events != it.events || it.src.cnt.Pkts != it.pkts {
		return fmt.Sprintf("tracer counted %d events / %d packets, experiment reported %d / %d",
			it.src.cnt.Events, it.src.cnt.Pkts, it.events, it.pkts)
	}
	if k := it.key(); k != refKey {
		return fmt.Sprintf("run is not deterministic:\n  got  %s\n  want %s", k, refKey)
	}
	return ""
}

// simRecord is one run in the trace file.
type simRecord struct {
	Kind     string    `json:"kind"`
	Traced   bool      `json:"traced"`
	StartNS  int64     `json:"start_ns"`
	EndNS    int64     `json:"end_ns"`
	SetupNS  int64     `json:"setup_ns"`
	Arms     []armSpan `json:"arms"`
	Counters counters  `json:"counters"`
	AllocB   uint64    `json:"alloc_bytes,omitempty"`
	GCs      uint32    `json:"gc_cycles,omitempty"`
	CPUNS    int64     `json:"cpu_ns,omitempty"`
}

// simLayers derives the per-layer metrics from the traced runs and the
// unit-cost probes, and records every run as a trace span.
func simLayers(o *options, r *report, w simWorkload, cfg experiment.Figure3Config,
	iters []*simIter, perFabric []float64, untracedWall float64) error {
	t0 := iters[0].start
	rel := func(t time.Time) int64 { return int64(t.Sub(t0)) }
	var resets, armSim, gaps, runMS, overhead, cpuMS, allocMB, gcs, tracedWalls []float64
	var hits, checkouts int
	var cpu, wall, setup time.Duration
	arms := float64(len(w.arms()))
	for i, it := range iters {
		rec := simRecord{Kind: "run", Traced: it.traced, StartNS: rel(it.start), EndNS: rel(it.end),
			SetupNS: int64(it.setup), Counters: it.src.cnt, AllocB: it.alloc, GCs: it.gcs, CPUNS: int64(it.cpu)}
		for _, a := range it.src.arms {
			a.StartNS, a.EndNS = rel(a.start), rel(a.end)
			rec.Arms = append(rec.Arms, a)
		}
		r.span(rec)
		if !it.traced {
			continue
		}
		tracedWalls = append(tracedWalls, it.wall.Seconds())
		resets = append(resets, ms(it.setup)/arms)
		armSim = append(armSim, ms(it.armTime()-it.setup)/arms)
		if i > 0 {
			gaps = append(gaps, ms(it.start.Sub(iters[i-1].end)))
		}
		runMS = append(runMS, ms(it.wall))
		overhead = append(overhead, ms(it.wall-it.armTime()))
		cpuMS = append(cpuMS, ms(it.cpu))
		allocMB = append(allocMB, float64(it.alloc)/(1<<20))
		gcs = append(gcs, float64(it.gcs))
		for _, a := range it.src.arms {
			checkouts++
			if a.Hit {
				hits++
			}
		}
		cpu += it.cpu
		wall += it.wall
		setup += it.setup
	}
	n := len(tracedWalls)
	c := iters[len(iters)-1].src.cnt // a warm run: its pool no longer allocates
	r.set("core.build_ms", median(perFabric), "ms", len(perFabric), "SetupWall per arm of cold setup runs")
	r.set("core.reset_ms", median(resets), "ms", n, "SetupWall per warm arm")
	r.set("experiment.arm_sim_ms", median(armSim), "ms", n, "Checkout->Checkin minus SetupWall, per arm")
	c.report(r, 1, "per run")

	r.set("serve.queue_wait_ms", median(gaps), "ms", len(gaps), "gap before a run in the closed loop")
	r.set("serve.run_ms", median(runMS), "ms", n, "")
	r.set("serve.client_overhead_ms", median(overhead), "ms", n, "run wall outside the arms")
	r.set("serve.pool_hit_frac", ratio(float64(hits), float64(checkouts)), "ratio", checkouts, "FabricCache")
	r.set("serve.pool_evictions", float64(checkouts-hits), "count", checkouts, "FabricCache misses on warm runs")
	r.set("serve.runs_detached", 0, "count", n, "in-process runs never detach")
	r.set("serve.cpu_ms_per_job", median(cpuMS), "ms", n, "")
	r.set("serve.reset_cpu_frac", ratio(setup.Seconds(), cpu.Seconds()), "ratio", n, "SetupWall / process CPU of traced runs")
	r.set("serve.build_cpu_frac", 0, "ratio", n, "warm runs never build")
	r.set("serve.cancel_cpu_frac", 0, "ratio", n, "nothing is cancelled")

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.set("go.alloc_mb_per_run", median(allocMB), "MiB", n, "")
	r.set("go.gc_cycles_per_run", median(gcs), "count", n, "")
	r.set("go.gc_cpu_frac", mem.GCCPUFraction, "ratio", 1, "whole process")
	r.set("go.cpu_util", ratio(cpu.Seconds(), wall.Seconds()), "ratio", n, "process CPU / wall")
	r.set("trace.overhead_ms", 1000*(median(tracedWalls)-untracedWall), "ms", n, "traced minus untraced run wall")

	bt := experiment.BuildFig3Topology(cfg)
	p, err := runProbes(len(bt.G.Links) + len(bt.G.Hosts()))
	if err != nil {
		return err
	}
	p.report(r, c, arms, median(armSim))
	return nil
}
