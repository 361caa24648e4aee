package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON reads the metric names and units BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	same := func(what string, code []string, decl map[string]string) {
		if len(code) != len(decl) {
			t.Errorf("%s: code lists %d metrics, BENCHMARK.json %d", what, len(code), len(decl))
		}
		for _, n := range code {
			if _, ok := decl[n]; !ok {
				t.Errorf("%s: %s is not in BENCHMARK.json", what, n)
			}
		}
	}
	same("end_to_end", endToEnd, e2e)
	same("per_layer", perLayer, layers)
}

// TestTinyRuns runs each workload with the smallest time budget (one
// measured operation, or one untraced and one traced) in traced mode,
// which prints every metric, and checks each declared metric appears with
// its declared unit and the run is correct.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once (about a minute)")
	}
	e2e, layers := benchmarkJSON(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "ffserved")
	if out, err := exec.Command("go", "build", "-o", bin, "fastflex/cmd/ffserved").CombinedOutput(); err != nil {
		t.Fatalf("building ffserved: %v\n%s", err, out)
	}
	for _, w := range []string{"lfa_packet", "isp_sharded", "serve_mixed"} {
		t.Run(w, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w, "-seed", "5", "-seconds", "0.001", "-trace", "1",
				"-ffserved", bin, "-out", dir}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			units := map[string]string{}
			var last string
			sc := bufio.NewScanner(&stdout)
			for sc.Scan() {
				last = sc.Text()
				if f := strings.Fields(last); len(f) >= 4 && f[0] == "metric" {
					units[f[1]] = f[3]
				}
			}
			for _, decl := range []map[string]string{e2e, layers} {
				for name, unit := range decl {
					if got, ok := units[name]; !ok {
						t.Errorf("metric %s not printed", name)
					} else if got != unit {
						t.Errorf("metric %s printed in %s, BENCHMARK.json says %s", name, got, unit)
					}
				}
			}
			var res struct {
				Correct   bool
				Attempted int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("last line is not the result object: %v\n%s", err, last)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(layers) {
				t.Errorf("result %+v", res)
			}
		})
	}
}

// TestInjectedBadResultsCount feeds a non-deterministic sim run and a
// changed served body through the checks and requires both to be counted
// as failed operations in the printed result.
func TestInjectedBadResultsCount(t *testing.T) {
	r := newReport()
	good := &simIter{src: &fabricTracer{cnt: counters{Events: 10, Pkts: 4}}, events: 10, pkts: 4,
		metrics: map[string]float64{"attack_mean_fastflex": 0.9}}
	r.op(checkIter(good, good.key()))
	bad := &simIter{src: &fabricTracer{cnt: counters{Events: 10, Pkts: 4, Delivered: 1}}, events: 10, pkts: 4,
		metrics: good.metrics}
	r.op(checkIter(bad, good.key()))
	mismatch := &simIter{src: &fabricTracer{cnt: counters{Events: 11, Pkts: 4}}, events: 10, pkts: 4}
	r.op(checkIter(mismatch, good.key()))

	ref := map[refKey]*refRun{{"hot0", 7}: {metrics: map[string]float64{"attack_mean_fastflex": 0}}}
	chk := &bodyChecker{refs: ref, first: map[refKey][]byte{}}
	body := []byte(`{"runs":[{"seed":7,"metrics":{"attack_mean_fastflex":0}}],"shape_errors":[]}`)
	r.op(chk.check(&jobResult{Shape: "hot0", Seed: 7, body: body}))
	r.op(chk.check(&jobResult{Shape: "hot0", Seed: 7, body: append([]byte(" "), body...)}))
	wrong := []byte(`{"runs":[{"seed":8,"metrics":{"attack_mean_fastflex":0.5}}],"shape_errors":[]}`)
	ref[refKey{"hot0", 8}] = &refRun{metrics: map[string]float64{"attack_mean_fastflex": 0}}
	r.op(chk.check(&jobResult{Shape: "hot0", Seed: 8, body: wrong}))

	for _, n := range endToEnd {
		r.set(n, 1, "s", 1, "")
	}
	var out bytes.Buffer
	if err := r.emit(&out, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "failed_frac") || !strings.Contains(out.String(), " 0.666667 ") {
		t.Errorf("failed_frac line missing or wrong:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 6 || res.Failed != 4 {
		t.Errorf("got %+v, want correct=false attempted=6 failed=4", res)
	}
}

func TestTailPercentile(t *testing.T) {
	vs := make([]float64, 200)
	for i := range vs {
		vs[i] = float64(i)
	}
	if p, _ := tailPercentile(vs); p != 95 {
		t.Errorf("200 samples: p%v, want p95", p)
	}
	if p, v := tailPercentile(vs[:5]); p != 100 || v != 4 {
		t.Errorf("5 samples: p%v=%v, want the maximum", p, v)
	}
}
