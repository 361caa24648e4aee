package experiment

import "time"

// Def describes one registered experiment: the unit ffbench lists, the
// Runner schedules, and CI smoke-tests.
type Def struct {
	// ID is the stable short name ("fig3", "a5", ...).
	ID string
	// Desc is the one-line description shown by ffbench -list.
	Desc string
	// Seeded reports whether the result varies with the seed. Unseeded
	// experiments (pure resource-accounting tables) run once regardless of
	// how many seeds were requested.
	Seeded bool
	// Run executes the experiment. Unseeded experiments ignore the seed.
	Run func(seed int64) *Result
	// ShortRun, if non-nil, is a cut-down variant for CI smoke runs
	// (ffbench -short): same code paths and shape checks, much shorter
	// simulated horizon.
	ShortRun func(seed int64) *Result
	// WarmRun / WarmShortRun, if non-nil, are Run / ShortRun with a
	// caller-supplied FabricSource the run may check warm fabrics out of.
	// Results are byte-identical to the cold variants (the reset contract);
	// only setup wall time changes. Runner workers pass their private
	// cache; front ends without one use Run/ShortRun.
	WarmRun      func(seed int64, fabrics FabricSource) *Result
	WarmShortRun func(seed int64, fabrics FabricSource) *Result
}

// DefaultShards is the engine shard count registry experiments that take
// one (fig3x, fig3f, a6) run with. ffbench's and ffserved's -shards flags
// set it; values <= 0, the zero value included, mean 1. Results are
// byte-identical for every count, so it only trades barrier overhead
// against parallelism.
var DefaultShards int

// Fig3Scenario returns the exact Figure3Config behind a registry Figure-3
// experiment ("fig3" is the paper topology, "fig3x" the ISP-scale
// multi-region variant used for parallel speedup measurements: four remote
// regions feed the victim region over the backbone, with enough bots that
// most simulated work happens outside the victim region). Other front ends
// (ffserved) call this to rebuild the same run — optionally over a
// warm fabric — without duplicating these numbers, which is
// what keeps API results byte-identical to ffbench's. short selects the
// cut-down CI variant: the horizon shrinks from 120 s to 30 s of simulated
// time, long enough for the attack to land and the defense to respond so
// the shape checks still discriminate. The second return is false when id
// is not a Figure-3 scenario.
func Fig3Scenario(id string, seed int64, short bool) (Figure3Config, bool) {
	var cfg Figure3Config
	switch id {
	case "fig3":
		cfg = Figure3Config{Seed: seed}
	case "fig3x":
		cfg = Figure3Config{
			Seed:         seed,
			LargeRegions: 4,
			RegionSize:   10,
			Users:        16,
			Servers:      8,
			Bots:         96,
			Shards:       DefaultShards,
		}
	default:
		return Figure3Config{}, false
	}
	if short {
		cfg.Duration = 30 * time.Second
		cfg.AttackStart = 10 * time.Second
		cfg.ScoutEvery = 5 * time.Second
	}
	return cfg, true
}

// fig3Run adapts a Fig3Scenario id to the registry's Run signature.
func fig3Run(id string, short bool) func(int64) *Result {
	return func(seed int64) *Result {
		cfg, _ := Fig3Scenario(id, seed, short)
		return Figure3Compare(cfg)
	}
}

// fig3WarmRun is fig3Run with a fabric source threaded through: the three
// comparison arms and every subsequent seed on the same worker reuse warm
// fabrics instead of cold-building.
func fig3WarmRun(id string, short bool) func(int64, FabricSource) *Result {
	return func(seed int64, fabrics FabricSource) *Result {
		cfg, _ := Fig3Scenario(id, seed, short)
		cfg.Fabrics = fabrics
		return Figure3Compare(cfg)
	}
}

// Registry enumerates every experiment in the order EXPERIMENTS.md
// presents them. The order is part of the output contract: ffbench prints
// results in registry order no matter how many workers ran them, so serial
// and parallel runs produce byte-identical text.
func Registry() []Def {
	return []Def{
		{ID: "table1", Desc: "Figure 1(a): analyzer module resource table",
			Run: func(int64) *Result { return Table1Analyzer() }},
		{ID: "fig1merge", Desc: "Figure 1(b): merged dataflow graph with sharing",
			Run: func(int64) *Result { return Figure1Merge() }},
		{ID: "fig1place", Desc: "Figure 1(c): placement onto topologies",
			Run: func(int64) *Result { return Figure1Place() }},
		{ID: "fig2", Desc: "Figure 2: multimode progression",
			Run: func(int64) *Result { return Figure2Modes() }},
		{ID: "fig1d", Desc: "Figure 1(d): dynamic scaling at runtime",
			Run: func(int64) *Result { return Figure1dScale() }},
		{ID: "fig3", Desc: "Figure 3: FastFlex vs baseline under rolling LFA", Seeded: true,
			Run: fig3Run("fig3", false), ShortRun: fig3Run("fig3", true),
			WarmRun: fig3WarmRun("fig3", false), WarmShortRun: fig3WarmRun("fig3", true)},
		{ID: "fig3x", Desc: "Figure 3 at ISP scale: multi-region topology (sharded engine target)", Seeded: true,
			Run: fig3Run("fig3x", false), ShortRun: fig3Run("fig3x", true),
			WarmRun: fig3WarmRun("fig3x", false), WarmShortRun: fig3WarmRun("fig3x", true)},
		{ID: "fig3f", Desc: "Figure 3 at planet scale: hybrid fluid/packet substrate, 10^5 modeled hosts", Seeded: true,
			Run: func(seed int64) *Result {
				return Figure3f(Figure3fConfig{Seed: seed, Shards: DefaultShards})
			},
			ShortRun: func(seed int64) *Result {
				return Figure3f(Figure3fConfig{Seed: seed, Shards: DefaultShards,
					HostsPerFlow: 250, Duration: 20 * time.Second, AttackStart: 8 * time.Second})
			},
			WarmRun: func(seed int64, fabrics FabricSource) *Result {
				return Figure3f(Figure3fConfig{Seed: seed, Shards: DefaultShards, Fabrics: fabrics})
			},
			WarmShortRun: func(seed int64, fabrics FabricSource) *Result {
				return Figure3f(Figure3fConfig{Seed: seed, Shards: DefaultShards, Fabrics: fabrics,
					HostsPerFlow: 250, Duration: 20 * time.Second, AttackStart: 8 * time.Second})
			}},
		{ID: "a1", Desc: "A1: mode-change latency vs diameter",
			Run: func(int64) *Result { return AblationModeLatency() }},
		{ID: "a2", Desc: "A2: PPM sharing",
			Run: func(int64) *Result { return AblationSharing() }},
		{ID: "a3", Desc: "A3: placement policies",
			Run: func(int64) *Result { return AblationPlacement() }},
		{ID: "a4", Desc: "A4: repurposing disruption vs fast reroute",
			Run: func(int64) *Result { return AblationRepurpose() }},
		{ID: "a5", Desc: "A5: FEC for state transfer", Seeded: true,
			Run: AblationFEC},
		{ID: "a6", Desc: "A6: pinning normal flows", Seeded: true,
			Run: AblationPinning, ShortRun: AblationPinningShort},
		{ID: "a7", Desc: "A7: stability under pulsing attacks", Seeded: true,
			Run: AblationStability},
	}
}
