package experiment

import (
	"fmt"
	"math"
	"time"

	"fastflex/internal/attack"
	"fastflex/internal/core"
	"fastflex/internal/metrics"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// Figure 3f: the Figure-3 rolling-LFA comparison on a planet-scale
// topology, with the host population carried by the hybrid fluid/packet
// substrate. Foreground traffic — user AIMD flows, the Crossfire botnet,
// FastFlex mode-change signaling — stays packet-level; the background
// population (10^5-10^6 modeled hosts) rides fluid flows that cost O(rate
// changes) events instead of O(packets). A pure packet-level run of the
// same population is infeasible on one core: the experiment measures its
// own events-per-packet cost and reports the extrapolated multiplier.

// Figure3fConfig parameterizes the planet-scale hybrid experiment.
type Figure3fConfig struct {
	// Regions and BaseRing shape topo.NewPlanetScale (defaults 6 and 4:
	// ring sizes cycle 4, 8, 16 for a 4:1 skew).
	Regions, BaseRing int
	// HostsPerFlow is the modeled-host weight behind each fluid flow
	// (default 20000; with 6x4 regions that is 50 flows = 10^6 modeled
	// hosts). The fluid substrate's cost is O(rate changes), independent
	// of this weight — which is the entire point of the experiment.
	HostsPerFlow int
	// BgPerHostBps is the per-modeled-host background rate (default
	// 1 kbps: a mostly-idle residential population). A flow's rate is
	// HostsPerFlow x BgPerHostBps.
	BgPerHostBps float64
	// Duration (default 60 s) and AttackStart (default 20 s).
	Duration, AttackStart time.Duration
	// Users / Servers / Bots are the packet-level foreground populations
	// (defaults 12 / 4 / 24).
	Users, Servers, Bots int
	Seed                 int64
	// Shards is the engine's shard count (values <= 0 mean 1); results
	// are byte-identical for every count.
	Shards int
	// Fabrics, when non-nil, supplies warm fabrics exactly as
	// Figure3Config.Fabrics does: each arm checks out a built fabric under
	// its key, resets it to the run's seed, and checks it back in when the
	// arm finishes. Fluid flows are run state (torn down by the reset), so
	// the hybrid substrate reuses fabrics as freely as the packet-only one.
	Fabrics FabricSource
}

func (c *Figure3fConfig) fillDefaults() {
	if c.Regions == 0 {
		c.Regions = 6
	}
	if c.BaseRing == 0 {
		c.BaseRing = 4
	}
	if c.HostsPerFlow == 0 {
		c.HostsPerFlow = 20000
	}
	if c.BgPerHostBps == 0 {
		c.BgPerHostBps = 1e3
	}
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	if c.AttackStart == 0 {
		c.AttackStart = 20 * time.Second
	}
	if c.Users == 0 {
		c.Users = 12
	}
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.Bots == 0 {
		c.Bots = 24
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
}

// Fig3fTopology is a fully built planet-scale topology with its host
// populations attached: the fig3f analog of Fig3Topology. The builder
// value is retained because the background-flow layout walks its region
// rings. Like Fig3Topology, the graph is only mutated during
// construction; runs read it, so one value backs many runs.
type Fig3fTopology struct {
	M                    *topo.MultiRegion
	G                    *topo.Graph
	Users, Bots, Servers []topo.NodeID
}

// buildFig3fTopology constructs the topology a figure3fRun over cfg
// builds for itself; deterministic, so warm and cold runs see the same
// graph.
func buildFig3fTopology(cfg Figure3fConfig) *Fig3fTopology {
	m := topo.NewPlanetScale(cfg.Regions, cfg.BaseRing)
	bt := &Fig3fTopology{M: m}
	bt.Users = m.AttachUsers(cfg.Users)
	bt.Bots = m.AttachBots(cfg.Bots)
	bt.Servers = m.AttachServers(cfg.Servers)
	bt.G = m.Graph()
	return bt
}

// fabricKey fingerprints everything a fig3f arm's fabric build consumes
// except the seed, in the same spirit as Figure3Config.FabricKey. The
// "planet/" prefix keeps the key space disjoint from the Figure-3
// families, so a FabricSource shared across experiments never hands one
// family the other's topology type.
func (c Figure3fConfig) fabricKey(defense Defense) string {
	c.fillDefaults()
	return fmt.Sprintf("planet/%dx%d/u%d.b%d.s%d/off%t.k%d",
		c.Regions, c.BaseRing, c.Users, c.Bots, c.Servers,
		defense != DefenseFastFlex, c.Shards)
}

// fig3fArm runs one defense arm and reports the foreground series plus the
// fluid substrate's byte ledger.
type fig3fArm struct {
	fig *Figure3Result
	// Fluid ledger, bytes over the whole run.
	injected, delivered, dropped, queued float64
	modeledHosts                         uint64
	events, packets                      uint64
	setupWall                            time.Duration
}

func figure3fRun(cfg Figure3fConfig, defense Defense) fig3fArm {
	setupStart := time.Now()
	var wf *WarmFabric
	var fab *core.Fabric
	var bt *Fig3fTopology
	if cfg.Fabrics != nil {
		if wf = cfg.Fabrics.Checkout(cfg.fabricKey(defense)); wf != nil {
			if err := wf.Fab.Reset(cfg.Seed); err != nil {
				wf = nil
			} else {
				bt = wf.Topo.(*Fig3fTopology)
				fab = wf.Fab
			}
		}
	}
	if fab == nil {
		bt = buildFig3fTopology(cfg)
		var srvAddr []packet.Addr
		for _, s := range bt.Servers {
			srvAddr = append(srvAddr, packet.HostAddr(int(s)))
		}
		coreCfg := core.Config{Protected: srvAddr, DefenseOff: defense != DefenseFastFlex}
		coreCfg.Net = netsim.DefaultConfig()
		coreCfg.Net.Seed = cfg.Seed
		coreCfg.Net.Shards = cfg.Shards
		coreCfg.Net.Fluid = true
		var err error
		fab, err = core.New(bt.G, coreCfg)
		if err != nil {
			panic(fmt.Sprintf("experiment: building fig3f fabric: %v", err))
		}
	}
	m := bt.M
	users := bt.Users
	bots := bt.Bots
	servers := bt.Servers
	var srvAddr []packet.Addr
	for _, s := range servers {
		srvAddr = append(srvAddr, packet.HostAddr(int(s)))
	}
	n := fab.Net

	// Background population: one fluid flow per ingress switch, crossing
	// half its region ring (regional churn), plus one flow per region from
	// its first ingress to a victim server (inter-region baseline load that
	// transits the backbone and the victim cores). Flow creation order is
	// the deterministic region/ring order.
	rate := float64(cfg.HostsPerFlow) * cfg.BgPerHostBps
	var flows []*netsim.FluidFlow
	for ri, ring := range m.Regions {
		for i := 2; i < len(ring); i++ {
			dst := ring[(i+len(ring)/2)%len(ring)]
			f := n.NewFluidFlow(ring[i], dst, rate, cfg.HostsPerFlow)
			f.Start()
			flows = append(flows, f)
		}
		f := n.NewFluidFlow(ring[2], servers[ri%len(servers)], rate, cfg.HostsPerFlow)
		f.Start()
		flows = append(flows, f)
	}

	userSrcs := make([]*netsim.AIMDSource, 0, cfg.Users)
	for i, u := range users {
		src := netsim.NewAIMDSource(n, u, srvAddr[i%len(srvAddr)], uint16(6000+i), 80, 1200)
		src.SetMaxRate(5e6)
		src.Start()
		userSrcs = append(userSrcs, src)
	}
	userGoodput := func() uint64 {
		var total uint64
		for _, src := range userSrcs {
			total += src.AckedBytes()
		}
		return total
	}
	sampler := metrics.RateSampler(n.Eng, fmt.Sprintf("user goodput (%v)", defense),
		time.Second, userGoodput)

	atk := attack.NewCrossfire(n, attack.CrossfireConfig{
		Bots: bots, Servers: srvAddr,
		BotRateBps: 1.5e6, FlowsPerBot: 2,
		TargetLinks: 1,
		Rolling:     true, ScoutEvery: 8 * time.Second,
		Start: cfg.AttackStart,
	})
	atk.Launch()

	setupWall := time.Since(setupStart)
	fab.Run(cfg.Duration)
	sampler.Stop()

	raw := sampler.S
	stable := raw.MeanBetween(5*time.Second, cfg.AttackStart)
	norm := raw.Normalize(stable)
	norm.Name = fmt.Sprintf("normalized user throughput (%v)", defense)

	arm := fig3fArm{
		fig: &Figure3Result{
			Throughput: norm,
			StableMean: stable,
			AttackMean: norm.MeanBetween(cfg.AttackStart+2*time.Second, cfg.Duration),
			Rolls:      atk.Rolls,
		},
		queued:       n.FluidQueuedBytes(),
		delivered:    n.FluidDeliveredBytes(),
		dropped:      n.FluidDroppedBytes(),
		modeledHosts: uint64(n.ModeledHosts()),
		events:       n.EventsFired(),
		packets:      n.PacketsProcessed(),
		setupWall:    setupWall,
	}
	arm.injected = n.FluidInjectedBytes()
	arm.fig.FractionDegraded = fractionBelowBetween(norm, 0.8, cfg.AttackStart+2*time.Second, cfg.Duration)

	// Last touch of the fabric: hand it back for the next same-shape arm.
	if cfg.Fabrics != nil {
		if wf == nil {
			wf = &WarmFabric{Key: cfg.fabricKey(defense), Topo: bt, Fab: fab}
		}
		cfg.Fabrics.Checkin(wf)
	}
	return arm
}

// Figure3f runs the undefended and FastFlex arms of the planet-scale
// hybrid experiment and assembles the comparison table.
func Figure3f(cfg Figure3fConfig) *Result {
	cfg.fillDefaults()
	res := &Result{Name: "Figure 3f: planet-scale hybrid fluid/packet rolling LFA"}
	tb := &metrics.Table{Header: []string{"defense", "stable Mbps", "attack mean", "degraded<80%", "rolls"}}
	var arms []fig3fArm
	for _, d := range []Defense{DefenseNone, DefenseFastFlex} {
		a := figure3fRun(cfg, d)
		arms = append(arms, a)
		tb.AddRow(d.String(),
			fmt.Sprintf("%.1f", a.fig.StableMean*8/1e6),
			fmt.Sprintf("%.2f", a.fig.AttackMean),
			fmt.Sprintf("%.2f", a.fig.FractionDegraded),
			fmt.Sprintf("%d", a.fig.Rolls))
		res.Series = append(res.Series, a.fig.Throughput)
		res.Metric("attack_mean_"+d.String(), a.fig.AttackMean)
		res.Metric("stable_mbps_"+d.String(), a.fig.StableMean*8/1e6)
		res.Workload(a.events, a.packets)
		res.SetupWall += a.setupWall
	}
	res.Table = tb

	ff := arms[len(arms)-1] // FastFlex arm carries the headline ledger
	res.ModeledHosts = ff.modeledHosts
	res.Metric("modeled_hosts", float64(ff.modeledHosts))
	res.Metric("events_per_modeled_host", float64(res.Events)/float64(2*ff.modeledHosts))
	res.Metric("bg_injected_gbytes", ff.injected/1e9)
	res.Metric("bg_delivered_frac", ff.delivered/ff.injected)
	res.Metric("bg_dropped_frac", ff.dropped/ff.injected)
	consErr := math.Abs(ff.injected-(ff.delivered+ff.dropped+ff.queued)) / ff.injected
	res.Metric("bg_conservation_err", consErr)

	// The infeasibility multiplier: what the background would have cost as
	// packets. Bytes the fluid substrate moved, as 1000-byte frames, times
	// this run's own measured events-per-pipeline-pass (foreground cost),
	// times the mean fluid path length in switch hops — versus the events
	// the whole hybrid run actually fired.
	evPerPass := float64(res.Events) / float64(res.Packets)
	equivPasses := ff.injected / 1000 * fig3fMeanHops(cfg)
	equivEvents := equivPasses * evPerPass
	res.Metric("packet_equiv_event_ratio", equivEvents/float64(res.Events))

	nFlows := cfg.Regions // one victim flow per region
	for r := 0; r < cfg.Regions; r++ {
		nFlows += (cfg.BaseRing << uint(r%3)) - 2
	}
	res.Note("modeled hosts %d (%d fluid flows + foreground), background moved %.2f GB: %.0f%% delivered, %.0f%% dropped, conservation err %.1e",
		ff.modeledHosts, nFlows, ff.injected/1e9,
		100*ff.delivered/ff.injected, 100*ff.dropped/ff.injected, consErr)
	res.Note("pure packet-level equivalent: ~%.0fx the events this hybrid run fired (%.2g extrapolated vs %d actual)",
		equivEvents/float64(res.Events), equivEvents, res.Events)
	return res
}

// fig3fMeanHops estimates the mean switch-hop count of the background flow
// set from the builder's shape: intra-region flows cross half their ring,
// victim flows cross one backbone hop plus the victim core/edge (3 switch
// hops) — weighted by flow counts.
func fig3fMeanHops(cfg Figure3fConfig) float64 {
	var flows, hopSum float64
	for r := 0; r < cfg.Regions; r++ {
		size := cfg.BaseRing << uint(r%3)
		ing := float64(size - 2)
		flows += ing
		hopSum += ing * float64(size/2)
		flows++
		hopSum += 4 // ingress -> gateway -> core -> edge -> server side
	}
	if flows == 0 {
		return 1
	}
	return hopSum / flows
}
