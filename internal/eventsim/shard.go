package eventsim

import (
	"sync"
	"time"
)

// RankOwner mints merge ranks for one simulation entity (a switch, a link,
// a traffic source). A rank packs the entity's stable key with a per-entity
// sequence number; engines in ranked mode order same-time events by rank,
// so the pop order depends only on which entities scheduled what, never on
// which shard an entity happens to run in. Keys must be < 2^32 and unique
// per network; the per-entity counter wraps at 2^32, far beyond any run.
type RankOwner struct {
	key uint64
	n   uint64
}

// NewRankOwner creates a rank source for the entity with the given key.
func NewRankOwner(key uint64) RankOwner {
	return RankOwner{key: key << 32}
}

// Next returns the entity's next merge rank.
func (o *RankOwner) Next() uint64 {
	r := o.key | (o.n & 0xffffffff)
	o.n++
	return r
}

// ShardGroup runs several shard engines in lockstep conservative windows,
// with a coordinator engine for control-timescale work (tickers, samplers,
// experiment setup) that may touch any shard's state.
//
// Window protocol: the group computes base, the earliest pending event time
// across every engine, and closes the window at
//
//	Tend = min(base + Lookahead, coordinator's next event, horizon)
//
// Lookahead is the minimum propagation delay of any cross-shard link. A
// cross-shard hand-off emitted at t >= base arrives at t + tx + prop with
// tx >= 1ns and prop >= Lookahead, hence strictly after Tend — so every
// shard can execute its local events through Tend without ever receiving a
// surprise from a peer. Shards run the window in parallel on their own
// goroutines (a lone shard runs inline on the caller's); at the barrier
// the main goroutine drains the hand-off rings (Exchange), runs the
// coordinator through Tend, and opens the next window.
// Because base is a minimum over all engines, the earliest event always
// fires, so the loop makes progress even across idle gaps wider than the
// lookahead.
type ShardGroup struct {
	// Coord runs control-timescale events; it executes at barriers while
	// the shards are parked, so its callbacks may touch shard state freely.
	Coord *Engine
	// Shards are the per-partition engines; each runs on one goroutine.
	Shards []*Engine
	// Lookahead is the conservative window width. Zero means unbounded
	// windows (valid only when no cross-shard traffic can exist).
	Lookahead time.Duration
	// Bound, if set, replaces the static base+Lookahead computation with
	// a caller-supplied conservative bound (e.g. one derived from which
	// cross-shard links are actually active). It runs at the barrier, so
	// it may read any shard's state. The returned bound must be > base
	// whenever events are pending (progress) and must guarantee that no
	// cross-engine hand-off emitted during the window lands at or before
	// it (conservativeness); it is still capped by the horizon and the
	// coordinator's next event.
	Bound func(base, horizon time.Duration) time.Duration
	// Exchange is called at every barrier, before the coordinator runs, to
	// move cross-shard hand-offs into their destination engines.
	Exchange func()
	// Windows counts barrier rounds, for perf telemetry.
	Windows uint64

	workers []chan time.Duration
	window  sync.WaitGroup
	joined  sync.WaitGroup
}

// Run advances every engine to the horizon (inclusive), alternating
// parallel shard windows with barrier-time coordinator execution.
func (g *ShardGroup) Run(horizon time.Duration) {
	g.start()
	for {
		base, any := g.peekBase()
		if !any || base > horizon {
			break
		}
		tend := horizon
		if g.Bound != nil {
			if b := g.Bound(base, horizon); b < tend {
				tend = b
			}
		} else if g.Lookahead > 0 && base <= horizon-g.Lookahead {
			// base <= horizon - Lookahead also guards the addition
			// against overflow for huge horizons.
			tend = base + g.Lookahead
		}
		if at, ok := g.Coord.PeekAt(); ok && at < tend {
			tend = at
		}
		g.runWindow(tend)
		g.exchange()
		g.Coord.Run(tend)
		// The coordinator may itself emit cross-shard hand-offs (probes,
		// heartbeats); drain them now so the next base computation sees
		// every pending event.
		g.exchange()
		g.Windows++
	}
	// No event anywhere is due at or before the horizon: advance every
	// clock so Now() agrees across engines.
	g.runWindow(horizon)
	g.exchange()
	g.Coord.Run(horizon)
	g.exchange()
	g.stop()
}

func (g *ShardGroup) exchange() {
	if g.Exchange != nil {
		g.Exchange()
	}
}

// peekBase returns the earliest pending event time across all engines.
// It runs at a barrier, so reading shard engines is race-free.
func (g *ShardGroup) peekBase() (time.Duration, bool) {
	var base time.Duration
	any := false
	if at, ok := g.Coord.PeekAt(); ok {
		base, any = at, true
	}
	for _, e := range g.Shards {
		if at, ok := e.PeekAt(); ok && (!any || at < base) {
			base, any = at, true
		}
	}
	return base, any
}

// runWindow executes one parallel window: every shard runs through tend,
// and the call returns only after all of them reach the barrier. A lone
// shard runs inline on the caller's goroutine: there is no peer to
// overlap with, and skipping the worker keeps one-shard runs free of
// per-Run allocations.
func (g *ShardGroup) runWindow(tend time.Duration) {
	if len(g.Shards) == 1 {
		g.Shards[0].Run(tend)
		return
	}
	g.window.Add(len(g.workers))
	for _, ch := range g.workers {
		ch <- tend
	}
	g.window.Wait()
}

// start launches one worker goroutine per shard. Workers own their engine
// exclusively between a window send and the barrier; the main goroutine
// owns all engines between the barrier and the next send (the WaitGroup
// and channel operations order the hand-offs).
func (g *ShardGroup) start() {
	if g.workers != nil || len(g.Shards) == 1 {
		return
	}
	g.workers = make([]chan time.Duration, len(g.Shards))
	for i := range g.Shards {
		ch := make(chan time.Duration, 1)
		g.workers[i] = ch
		eng := g.Shards[i]
		g.joined.Add(1)
		go func() {
			defer g.joined.Done()
			for tend := range ch {
				eng.Run(tend)
				g.window.Done()
			}
		}()
	}
}

// stop joins the worker goroutines; a later Run restarts them.
func (g *ShardGroup) stop() {
	for _, ch := range g.workers {
		close(ch)
	}
	g.joined.Wait()
	g.workers = nil
}
