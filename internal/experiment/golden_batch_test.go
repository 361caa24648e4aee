package experiment

import (
	"fmt"
	"runtime"
	"testing"
)

// TestFigure3BatchingGoldenIdentical pins that the batched pipeline and
// the adaptive shard lookahead are pure performance features. Turning
// either (or both) off must reproduce the committed golden bytes exactly —
// same float64 bit patterns, same attacker rolls — for every shard count
// (0, the unset field, means one shard), under a single-threaded and a
// parallel scheduler. The golden file is the one the default (batched,
// adaptive) configuration is already pinned to, so this test transitively
// proves batched == unbatched and adaptive == static.
func TestFigure3BatchingGoldenIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want fig3Golden
	readGolden(t, "fig3_golden.json", &want)

	type variant struct {
		disableBatch, staticLookahead bool
		name                          string
	}
	for _, procs := range []int{1, 4} {
		for _, shards := range []int{0, 1, 2, 4} {
			variants := []variant{{true, false, "unbatched"}}
			if shards >= 2 {
				// Static lookahead only means something when cut links
				// exist; add the combined variant to catch interactions.
				variants = append(variants,
					variant{false, true, "static"},
					variant{true, true, "unbatched+static"})
			}
			for _, v := range variants {
				procs, shards, v := procs, shards, v
				t.Run(fmt.Sprintf("procs=%d/shards=%d/%s", procs, shards, v.name), func(t *testing.T) {
					if testing.Short() && (procs != 4 || shards == 1 || shards == 2) {
						t.Skip("short mode runs the widest configurations only")
					}
					runtime.GOMAXPROCS(procs)
					cfg := goldenFig3Config()
					cfg.Shards, cfg.DisableBatch, cfg.StaticLookahead = shards, v.disableBatch, v.staticLookahead
					compareFig3Golden(t, fig3GoldenOf(Figure3(cfg)), want)
				})
			}
		}
	}
}
