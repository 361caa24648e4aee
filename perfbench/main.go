// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed wall-clock budget, checks the program's outputs,
// and prints every metric by name with its unit and sample count; the
// last line of standard output is one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics (-trace 0) or the per-layer metrics of a
// separate traced run (-trace 1). README.md explains the workloads, the
// metrics and how to read the trace file.
//
// Usage (run.sh builds the binaries and supplies -ffserved and -out):
//
//	perfbench -workload lfa_packet -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer are the metric names the final JSON line carries
// in untraced and traced mode. BENCHMARK.json lists the same names; the
// self-test keeps the two in step.
var endToEnd = []string{
	"run_wall_s", "pkts_per_s", "setup_s",
	"job_p50_ms", "job_p99_ms", "jobs_per_s", "peak_rss_mb",
}

var perLayer = []string{
	"core.build_ms", "core.reset_ms",
	"experiment.arm_sim_ms", "experiment.predicted_sim_ms",
	"eventsim.events", "eventsim.events_per_pkt", "eventsim.ns_per_event",
	"netsim.pkts", "netsim.hops", "netsim.hops_per_pkt", "netsim.delivered",
	"netsim.drops_queue", "netsim.drops_pipeline", "netsim.drops_noroute",
	"netsim.drops_down", "netsim.drops_loss",
	"netsim.pool_new_frac", "netsim.ns_per_hop",
	"netsim.windows", "netsim.events_per_window", "netsim.lookahead_us",
	"dataplane.ns_per_pkt", "dataplane.dedup_evictions", "mode.changes",
	"sketch.ns_per_update",
	"serve.queue_wait_ms", "serve.run_ms", "serve.client_overhead_ms",
	"serve.pool_hit_frac", "serve.pool_evictions", "serve.runs_detached",
	"serve.cpu_ms_per_job", "serve.reset_cpu_frac", "serve.build_cpu_frac", "serve.cancel_cpu_frac",
	"go.alloc_mb_per_run", "go.gc_cycles_per_run", "go.gc_cpu_frac", "go.cpu_util",
	"trace.overhead_ms",
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*options, *report) error{
	"lfa_packet":  runLFAPacket,
	"isp_sharded": runISPSharded,
	"serve_mixed": runServeMixed,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	ffserved string // path of the ffserved binary (serve_mixed)
	outDir   string // where the trace file goes
	out      io.Writer
}

// deadline is when the measured loop stops admitting new operations.
func (o *options) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(o.seconds * float64(time.Second)))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type sample struct {
	metricValue
	n    int
	note string
}

// report accumulates one invocation's operations, failures, metrics and
// trace records.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]sample
	trace             []any
}

func newReport() *report { return &report{metrics: make(map[string]sample)} }

// op records one attempted operation; a non-empty problem marks it failed.
func (r *report) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

// set records a metric measured over n samples; note is printed next to
// it in the human-readable lines only.
func (r *report) set(name string, v float64, unit string, n int, note string) {
	r.metrics[name] = sample{metricValue{v, unit}, n, note}
}

// span appends a trace record; the trace file is written once at the end.
func (r *report) span(rec any) { r.trace = append(r.trace, rec) }

// emit prints every metric as a line, then the final JSON object with the
// metrics of the requested mode.
func (r *report) emit(w io.Writer, trace bool) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.metrics[n]
		fmt.Fprintf(w, "metric %-28s %16.6g %-6s n=%d %s\n", n, s.Value, s.Unit, s.n, s.note)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "metric %-28s %16.6g %-6s n=%d\n", "failed_frac", failedFrac, "ratio", r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]metricValue, len(want))}
	for _, n := range want {
		s, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, s.Value)
		}
		out.Metrics[n] = s.metricValue
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeTrace writes the in-memory trace records as one JSON document.
func (r *report) writeTrace(o *options) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	b, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Records  []any  `json:"records"`
	}{o.workload, o.seed, r.trace}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line, runs the workload and prints its report.
// It returns 1 on a setup error (no result is printed) or when any
// correctness check failed (the result is printed with correct=false).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{out: stdout}
	fs.StringVar(&o.workload, "workload", "", "workload name: lfa_packet, isp_sharded or serve_mixed")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; picks the simulation seeds and the job sequence")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured wall-clock budget")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.ffserved, "ffserved", "", "ffserved binary (serve_mixed)")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	drive, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload {lfa_packet|isp_sharded|serve_mixed}, -seconds > 0, -trace 0|1\n")
		return 2
	}
	r := newReport()
	if err := drive(o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		path, err := r.writeTrace(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (%d records)\n", path, len(r.trace))
	}
	if err := r.emit(stdout, o.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// simSeed maps a workload seed onto a positive simulation seed.
func simSeed(seed int64, i int) int64 {
	return int64(splitmix(uint64(seed)+uint64(i)*0x9e3779b97f4a7c15)%1_000_000) + 1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fingerprint renders a metrics map in sorted key order with exact float
// formatting, for determinism comparisons.
func fingerprint(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v;", k, m[k])
	}
	return b.String()
}
