package experiment

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// The golden files under testdata/ pin simulation output byte-for-byte:
// same sample times, same float64 bit patterns, same attacker behavior.
// Every engine configuration (shard count, GOMAXPROCS, batching,
// lookahead, fresh or reset fabric) must reproduce fig3_golden.json.
// Regenerating with -update is only legitimate when a change is
// *supposed* to alter simulation semantics — never for a performance
// refactor.
var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// fig3Golden freezes one short Figure-3 FastFlex run: the headline numbers
// plus the full normalized-throughput series. encoding/json renders
// float64 with round-trippable precision, so equality below is exact.
type fig3Golden struct {
	StableMean       float64   `json:"stable_mean"`
	AttackMean       float64   `json:"attack_mean"`
	FractionDegraded float64   `json:"fraction_degraded"`
	Rolls            uint64    `json:"rolls"`
	T                []int64   `json:"t_ns"`
	V                []float64 `json:"v"`
}

// ablationGolden freezes an ablation's rendered table and headline metrics.
type ablationGolden struct {
	CSV     string             `json:"csv"`
	Metrics map[string]float64 `json:"metrics"`
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func writeGolden(t *testing.T, name string, v any) {
	t.Helper()
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal golden: %v", err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatalf("mkdir testdata: %v", err)
	}
	if err := os.WriteFile(goldenPath(name), append(buf, '\n'), 0o644); err != nil {
		t.Fatalf("write golden: %v", err)
	}
	t.Logf("wrote %s", goldenPath(name))
}

func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	buf, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("read golden (run with -update to record): %v", err)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		t.Fatalf("unmarshal golden: %v", err)
	}
}

// goldenFig3Config is the short Figure-3 FastFlex run every fig3 golden
// test executes; tests vary only engine knobs and the fabric source.
func goldenFig3Config() Figure3Config {
	return Figure3Config{
		Defense:     DefenseFastFlex,
		Duration:    14 * time.Second,
		AttackStart: 7 * time.Second,
		Seed:        7,
	}
}

// runGoldenFig3 runs the golden configuration on the given shard count
// (0 leaves the field unset, which means one shard).
func runGoldenFig3(shards int) *Figure3Result {
	cfg := goldenFig3Config()
	cfg.Shards = shards
	return Figure3(cfg)
}

// TestFigure3GoldenIdentical pins the default configuration (Shards
// unset) to the recorded golden.
func TestFigure3GoldenIdentical(t *testing.T) {
	got := fig3GoldenOf(runGoldenFig3(0))
	if *updateGolden {
		writeGolden(t, "fig3_golden.json", got)
		return
	}
	var want fig3Golden
	readGolden(t, "fig3_golden.json", &want)
	compareFig3Golden(t, got, want)
}

// TestFigure3ShardedGoldenIdentical pins the conservative parallel engine's
// determinism claim: a Figure-3 run must be byte-identical across shard
// counts 1, 2, and 4 and across GOMAXPROCS 1 and 4 — i.e. invariant both
// in how the event space is partitioned and in how the Go scheduler
// interleaves the shard workers.
func TestFigure3ShardedGoldenIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want fig3Golden
	readGolden(t, "fig3_golden.json", &want)
	for _, procs := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(t *testing.T) {
				if testing.Short() && (procs != 4 || shards == 2) {
					t.Skip("short mode runs the widest configuration only")
				}
				runtime.GOMAXPROCS(procs)
				compareFig3Golden(t, fig3GoldenOf(runGoldenFig3(shards)), want)
			})
		}
	}
}

func fig3GoldenOf(r *Figure3Result) fig3Golden {
	g := fig3Golden{
		StableMean:       r.StableMean,
		AttackMean:       r.AttackMean,
		FractionDegraded: r.FractionDegraded,
		Rolls:            r.Rolls,
	}
	for i := range r.Throughput.T {
		g.T = append(g.T, int64(r.Throughput.T[i]))
		g.V = append(g.V, r.Throughput.V[i])
	}
	return g
}

func compareFig3Golden(t *testing.T, got, want fig3Golden) {
	t.Helper()
	if got.StableMean != want.StableMean {
		t.Errorf("StableMean = %v, golden %v", got.StableMean, want.StableMean)
	}
	if got.AttackMean != want.AttackMean {
		t.Errorf("AttackMean = %v, golden %v", got.AttackMean, want.AttackMean)
	}
	if got.FractionDegraded != want.FractionDegraded {
		t.Errorf("FractionDegraded = %v, golden %v", got.FractionDegraded, want.FractionDegraded)
	}
	if got.Rolls != want.Rolls {
		t.Errorf("Rolls = %d, golden %d", got.Rolls, want.Rolls)
	}
	if len(got.T) != len(want.T) {
		t.Fatalf("series length %d, golden %d", len(got.T), len(want.T))
	}
	for i := range got.T {
		if got.T[i] != want.T[i] || got.V[i] != want.V[i] {
			t.Fatalf("sample %d: (t=%v, v=%v), golden (t=%v, v=%v)",
				i, got.T[i], got.V[i], want.T[i], want.V[i])
		}
	}
}

// TestAblationPinningGoldenIdentical pins ablation A6 (short variant) on
// one shard and on four. Pinning runs two full fabric deployments through
// attack-driven mode changes, so it additionally covers pipeline-cache
// invalidation (a stale compiled pipeline after a mode flip would shift
// goodput here) and shard-count invariance across those mode changes.
func TestAblationPinningGoldenIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("four 30s-horizon fabric runs; covered by TestFigure3GoldenIdentical in short mode")
	}
	if *updateGolden {
		r := AblationPinningSharded(7, 1)
		writeGolden(t, "a6_golden.json", ablationGolden{CSV: r.Table.CSV(), Metrics: r.Metrics})
		return
	}
	var want ablationGolden
	readGolden(t, "a6_golden.json", &want)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := AblationPinningSharded(7, shards)
			if got := r.Table.CSV(); got != want.CSV {
				t.Errorf("table diverged from golden:\ngot:\n%s\nwant:\n%s", got, want.CSV)
			}
			if len(r.Metrics) != len(want.Metrics) {
				t.Errorf("metric count %d, golden %d", len(r.Metrics), len(want.Metrics))
			}
			for name, w := range want.Metrics {
				if g, ok := r.Metrics[name]; !ok || g != w {
					t.Errorf("metric %q = %v, golden %v", name, r.Metrics[name], w)
				}
			}
		})
	}
}
