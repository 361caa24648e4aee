// Package netsim is the discrete-event network simulator: links with
// store-and-forward transmission, finite tail-drop queues, and utilization
// accounting; switch nodes running dataplane pipelines; host endpoints
// with CBR and AIMD traffic sources, auto-ACK, and traceroute.
//
// Layer (DESIGN.md §2): sits on eventsim, topo, packet, and dataplane;
// boosters, state, attack, and experiment build on it.
//
// Determinism contract: a Network runs as eventsim callbacks on per-shard
// engines plus a coordinator engine, synchronized by an
// eventsim.ShardGroup in conservative windows (one shard by default; a
// lone shard runs inline on the caller's goroutine). Randomness comes from
// seeded streams: per switch (pipeline draws), per lossy link (loss
// injection), and the coordinator's RNG for setup-time draws (source phase
// desync, traceroute bases). Same seed, byte-identical results, for every
// shard count. Beyond the shard workers, concurrency lives above this
// package, in experiment.Runner, which runs independent Networks on
// separate goroutines; ffvet's determinism analyzer confines goroutines
// and channel operations to the exempt shard-runtime functions.
//
// Beside the packet substrate, Config.Fluid enables rate-based fluid
// background flows (NewFluidFlow): aggregate traffic advanced
// analytically per link, carrying a modeled-host weight, with foreground
// packets seeing fluid queues as load (shared buffer admission, FIFO
// wait, residual-capacity service). Cost is O(rate changes), not
// O(packets), which is what makes 10^6-host backgrounds simulable; see
// DESIGN.md "Fluid/packet hybrid substrate".
//
// The forwarding hot path (enqueue → transmit → deliver → pipeline) is
// allocation-free in steady state: packets come from a per-Network pool
// and are recycled at end-of-life, per-link FIFO rings and preallocated
// event callbacks avoid per-packet closures, and pipeline contexts and
// switch-latency hop events are pooled. TestForwardSteadyStateZeroAlloc
// pins this.
package netsim
