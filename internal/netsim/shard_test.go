package netsim

import (
	"testing"
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// shardFingerprint captures every observable outcome of a run that the
// windowed engine promises to keep partition-invariant.
type shardFingerprint struct {
	delivered, noRoute, queue, pipeline, down, loss uint64
	ackedBytes                                      []uint64
	cbrSent                                         []uint64
	recvBytes                                       []uint64
	linkSentPkts                                    []uint64
	linkDrops                                       []uint64
	now                                             time.Duration
	// windows counts barrier rounds. It is engine telemetry, not a
	// simulation result: adaptive lookahead legitimately changes it, so
	// equality checks that span lookahead modes must skip it.
	windows uint64
}

// runSharded builds the multi-region topology with mixed CBR/AIMD traffic
// plus injected loss, runs it for two virtual seconds under the given
// shard count, and fingerprints the result.
func runSharded(t *testing.T, shards int) shardFingerprint {
	return runShardedCfg(t, shards, nil)
}

// runShardedCfg is runSharded with a config hook, so tests can toggle
// batching and lookahead knobs over the identical scenario.
func runShardedCfg(t *testing.T, shards int, mutate func(*Config)) shardFingerprint {
	t.Helper()
	m := topo.NewMultiRegion(3, 5)
	users := m.AttachUsers(6)
	bots := m.AttachBots(9)
	servers := m.AttachServers(3)
	g := m.Graph()

	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Shards = shards
	if mutate != nil {
		mutate(&cfg)
	}
	n := New(g, cfg)
	installShortestPathRoutes(n)

	var aimds []*AIMDSource
	for i, u := range users {
		srv := servers[i%len(servers)]
		s := NewAIMDSource(n, u, packet.HostAddr(int(srv)), uint16(6000+i), 80, 1200)
		s.SetMaxRate(2e6)
		s.Start()
		aimds = append(aimds, s)
	}
	var cbrs []*CBRSource
	for i, b := range bots {
		srv := servers[i%len(servers)]
		s := NewCBRSource(n, b, packet.HostAddr(int(srv)), uint16(7000+i), 80,
			packet.ProtoTCP, 900, 1e6)
		s.Start()
		cbrs = append(cbrs, s)
	}
	// Loss on one backbone link exercises the per-link loss streams.
	lossy := g.LinkBetween(m.Regions[0][0], m.Victim.CoreA)
	if lossy < 0 {
		t.Fatal("no backbone link found for loss injection")
	}
	n.SetLinkLoss(lossy, 0.02)

	// Mid-run control actions from coordinator context: stop and restart a
	// source at a barrier, as an attack orchestrator would.
	n.Eng.Schedule(800*time.Millisecond, cbrs[0].Stop)
	n.Eng.Schedule(1200*time.Millisecond, cbrs[0].Start)

	n.Run(2 * time.Second)

	fp := shardFingerprint{
		delivered: n.Delivered(),
		noRoute:   n.DropsNoRoute(),
		queue:     n.DropsQueue(),
		pipeline:  n.DropsPipeline(),
		down:      n.DropsDown(),
		loss:      n.DropsLoss(),
		now:       n.Now(),
		windows:   n.Windows(),
	}
	for _, s := range aimds {
		fp.ackedBytes = append(fp.ackedBytes, s.AckedBytes())
	}
	for _, s := range cbrs {
		fp.cbrSent = append(fp.cbrSent, s.Sent())
	}
	for _, srv := range servers {
		fp.recvBytes = append(fp.recvBytes, n.Host(srv).TotalRecvBytes())
	}
	for lid := range g.Links {
		pkts, _, drops := n.LinkStats(topo.LinkID(lid))
		fp.linkSentPkts = append(fp.linkSentPkts, pkts)
		fp.linkDrops = append(fp.linkDrops, drops)
	}
	return fp
}

func eqU64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWindowedRunShardCountInvariant is the heart of the sharded engine's
// correctness claim: the same simulation run under 1, 2, and 4 shards must
// produce identical counters, per-flow goodput, per-link statistics, and
// per-host receive totals — down to the last packet.
func TestWindowedRunShardCountInvariant(t *testing.T) {
	base := runSharded(t, 1)
	if base.delivered == 0 || base.loss == 0 {
		t.Fatalf("degenerate baseline: delivered=%d loss=%d", base.delivered, base.loss)
	}
	for _, k := range []int{2, 4} {
		got := runSharded(t, k)
		if got.delivered != base.delivered || got.noRoute != base.noRoute ||
			got.queue != base.queue || got.pipeline != base.pipeline ||
			got.down != base.down || got.loss != base.loss || got.now != base.now {
			t.Fatalf("shards=%d counters diverge:\n  base %+v\n  got  %+v", k, base, got)
		}
		if !eqU64s(got.ackedBytes, base.ackedBytes) {
			t.Fatalf("shards=%d per-flow goodput diverges:\n  base %v\n  got  %v", k, base.ackedBytes, got.ackedBytes)
		}
		if !eqU64s(got.cbrSent, base.cbrSent) {
			t.Fatalf("shards=%d CBR send counts diverge:\n  base %v\n  got  %v", k, base.cbrSent, got.cbrSent)
		}
		if !eqU64s(got.recvBytes, base.recvBytes) {
			t.Fatalf("shards=%d server receive totals diverge", k)
		}
		if !eqU64s(got.linkSentPkts, base.linkSentPkts) || !eqU64s(got.linkDrops, base.linkDrops) {
			t.Fatalf("shards=%d per-link statistics diverge", k)
		}
	}
}

// TestWindowedCrossShardTraffic checks that a 4-shard run actually moves
// packets across shard boundaries (the invariance test would be vacuous if
// the partition kept all traffic local).
func TestWindowedCrossShardTraffic(t *testing.T) {
	m := topo.NewMultiRegion(3, 5)
	users := m.AttachUsers(4)
	servers := m.AttachServers(2)
	g := m.Graph()
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Shards = 4
	n := New(g, cfg)
	installShortestPathRoutes(n)
	if n.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", n.Shards())
	}
	if n.Lookahead() != time.Duration(topo.BackboneDelay) {
		t.Fatalf("lookahead = %v, want backbone delay", n.Lookahead())
	}
	for i, u := range users {
		if n.ShardOf(u) == n.ShardOf(servers[0]) {
			t.Fatalf("user %d shares shard %d with the victim region", i, n.ShardOf(u))
		}
		s := NewCBRSource(n, u, packet.HostAddr(int(servers[0])), uint16(6000+i), 80,
			packet.ProtoUDP, 600, 2e6)
		s.Start()
	}
	n.Run(time.Second)
	if n.Delivered() == 0 {
		t.Fatal("no packets crossed the shard boundary")
	}
	if n.Windows() == 0 {
		t.Fatal("windowed run executed no barrier windows")
	}
}
