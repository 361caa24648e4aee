package main

import (
	"fmt"
	"math/rand"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/eventsim"
	"fastflex/internal/experiment"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/sketch"
	"fastflex/internal/topo"
)

// Unit-cost probes: each drives one layer through its public functions
// with a fixed amount of work and reports nanoseconds per unit. Multiplied
// by a run's exact counters they predict where the run's time went.
type probes struct {
	nsEvent, nsHop, nsPkt, nsCountMin, nsHashPipe float64
	depth                                         int
}

func runProbes(depth int) (*probes, error) {
	p := &probes{depth: depth}
	p.nsEvent = probeEventsim(depth, 2_000_000)
	var err error
	if p.nsHop, err = probeHop(200_000); err != nil {
		return nil, err
	}
	if p.nsPkt, err = probeDataplane(1_000_000); err != nil {
		return nil, err
	}
	p.nsCountMin, p.nsHashPipe = probeSketch(4_000_000)
	return p, nil
}

// report sets the probe metrics and the predicted per-arm simulation time
// next to the measured one. The three terms overlap (a hop includes its
// own events and a minimal pipeline pass), so the sum over-predicts; a
// change shows as the term that moves.
func (p *probes) report(r *report, c counters, arms, measuredArmMS float64) {
	r.set("eventsim.ns_per_event", p.nsEvent, "ns", 1, fmt.Sprintf("ScheduleRank+Run at pending depth %d", p.depth))
	r.set("netsim.ns_per_hop", p.nsHop, "ns", 1, "Enqueue on an 8-switch line")
	r.set("dataplane.ns_per_pkt", p.nsPkt, "ns", 1, "Switch.Process, FastFlex pipeline")
	r.set("sketch.ns_per_update", (p.nsCountMin+p.nsHashPipe)/2, "ns", 1,
		fmt.Sprintf("CountMin.Add=%.3g HashPipe.Add=%.3g", p.nsCountMin, p.nsHashPipe))
	ev := float64(c.Events) * p.nsEvent / 1e6 / arms
	hop := float64(c.Hops) * p.nsHop / 1e6 / arms
	pkt := float64(c.Pkts) * p.nsPkt / 1e6 / arms
	r.set("experiment.predicted_sim_ms", ev+hop+pkt, "ms", 1,
		fmt.Sprintf("eventsim=%.4g netsim=%.4g dataplane=%.4g measured=%.4g", ev, hop, pkt, measuredArmMS))
}

// probeEventsim holds the pending set at depth: every fired event
// schedules one successor at a pseudo-random later time.
func probeEventsim(depth, total int) float64 {
	eng := eventsim.New(1)
	x, rank := uint64(1), uint64(0)
	fired := 0
	var fn func()
	next := func() {
		x = splitmix(x)
		rank++
		eng.ScheduleRank(eng.Now()+time.Duration(1+x%1000)*time.Microsecond, rank, fn)
	}
	fn = func() {
		fired++
		if fired+depth <= total {
			next()
		}
	}
	for i := 0; i < depth; i++ {
		next()
	}
	start := time.Now()
	eng.Run(time.Duration(1) << 62)
	return float64(time.Since(start)) / float64(fired)
}

// probeHop pushes packets down an 8-switch line to a host at the far end.
func probeHop(total int) (float64, error) {
	g := topo.NewLinear(8)
	sws := g.Switches()
	dst := g.AttachHost(sws[len(sws)-1], "sink", topo.DefaultLinkBPS, topo.DefaultLinkDelay)
	n := netsim.New(g, netsim.DefaultConfig())
	for _, sw := range sws {
		p, ok := g.ShortestPath(sw, dst, nil)
		if !ok {
			return 0, fmt.Errorf("hop probe: no path from switch %d", sw)
		}
		n.Router(sw).SetRoute(packet.HostAddr(int(dst)), p.Links[0])
	}
	first := g.LinkBetween(sws[0], sws[1])
	hops := func() uint64 {
		var t uint64
		for l := range g.Links {
			s, _, _ := n.LinkStats(topo.LinkID(l))
			t += s
		}
		return t
	}
	send := func() {
		for i := 0; i < 32; i++ {
			p := n.NewPacket()
			p.Src, p.Dst, p.TTL = packet.HostAddr(0), packet.HostAddr(int(dst)), 64
			p.Proto, p.SrcPort, p.DstPort, p.PayloadLen = packet.ProtoUDP, uint16(i), 9, 100
			n.Enqueue(first, p)
		}
		n.Run(n.Now() + 50*time.Millisecond)
	}
	send() // warm the pools and rings
	base := hops()
	start := time.Now()
	for hops()-base < uint64(total) {
		send()
	}
	el := time.Since(start)
	if n.Delivered() == 0 || n.DropsQueue()+n.DropsNoRoute() > 0 {
		return 0, fmt.Errorf("hop probe: delivered %d, dropped %d", n.Delivered(), n.DropsQueue()+n.DropsNoRoute())
	}
	return float64(el) / float64(hops()-base), nil
}

// probeDataplane runs user-to-server packets through the pipeline of the
// FastFlex fig3 switch with the most installed programs.
func probeDataplane(total int) (float64, error) {
	// A 1 ms run builds the fabric the experiment uses and leaves it in
	// the cache.
	cfg, _ := experiment.Fig3Scenario("fig3", 1, true)
	cfg.Defense, cfg.Duration = experiment.DefenseFastFlex, time.Millisecond
	cache := experiment.NewFabricCache(0)
	cfg.Fabrics = cache
	experiment.Figure3(cfg)
	wf := cache.Checkout(cfg.FabricKey())
	if wf == nil {
		return 0, fmt.Errorf("dataplane probe: the run left no fabric in the cache")
	}
	bt, fab := wf.Topo.(*experiment.Fig3Topology), wf.Fab
	var sw *dataplane.Switch
	var id topo.NodeID
	for _, s := range bt.G.Switches() {
		if c := fab.Net.Switch(s); sw == nil || len(c.Programs()) > len(sw.Programs()) {
			sw, id = c, s
		}
	}
	in := bt.G.In(id)[0]
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			Src: packet.HostAddr(int(bt.Users[i%len(bt.Users)])), Dst: packet.HostAddr(int(bt.Servers[i%len(bt.Servers)])),
			Proto: packet.ProtoTCP, SrcPort: uint16(6000 + i), DstPort: 80, PayloadLen: 1200,
		}
	}
	ctx := &dataplane.Context{}
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for i := 0; i < total; i++ {
		p := pkts[i%len(pkts)]
		p.TTL = 64
		ctx.Reset()
		ctx.Now, ctx.Switch, ctx.InLink, ctx.Pkt, ctx.RNG = time.Duration(i)*time.Microsecond, id, in, p, rng
		ctx.Modes, ctx.OutLink = sw.Modes(), -1
		sw.Process(ctx)
	}
	return float64(time.Since(start)) / float64(total), nil
}

// probeSketch times CountMin.Add and HashPipe.Add over a skewed key mix,
// at the heavy-hitter booster's default HashPipe shape.
func probeSketch(total int) (cm, hp float64) {
	keys := make([]uint64, 4096)
	x := uint64(7)
	for i := range keys {
		x = splitmix(x)
		keys[i] = x % uint64(64+i) // small keys repeat: a few heavy flows
	}
	c := sketch.NewCountMin(4, 1024)
	start := time.Now()
	for i := 0; i < total; i++ {
		c.Add(keys[i%len(keys)], 1)
	}
	cm = float64(time.Since(start)) / float64(total)
	h := sketch.NewHashPipe(4, 256)
	start = time.Now()
	for i := 0; i < total; i++ {
		h.Add(keys[i%len(keys)])
	}
	hp = float64(time.Since(start)) / float64(total)
	return cm, hp
}
