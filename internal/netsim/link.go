package netsim

import (
	"math/rand"
	"time"

	"fastflex/internal/eventsim"
	"fastflex/internal/packet"
	"fastflex/internal/sketch"
	"fastflex/internal/topo"
)

// pktRing is a preallocated power-of-two FIFO ring of packets. It replaces
// the append/reslice queue that grew (and leaked its prefix) on every
// enqueue: in steady state push/pop touch only the preexisting backing
// array, which is what makes link forwarding allocation-free.
type pktRing struct {
	buf  []*packet.Packet
	head int
	n    int
	// min is a capacity floor applied on first growth. Queue rings set it
	// to the worst-case packet count their byte cap admits, so a link that
	// carries traffic allocates its full-size ring once and never grows
	// again in steady state — while idle links never allocate at all.
	min int
}

func (r *pktRing) len() int { return r.n }

func (r *pktRing) push(p *packet.Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) pop() *packet.Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *pktRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 16
	}
	for size < r.min {
		size *= 2
	}
	buf := make([]*packet.Packet, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// linkState is the runtime of one directed link: a store-and-forward
// transmitter with a finite tail-drop FIFO queue, plus utilization
// accounting over rolling windows.
type linkState struct {
	// The fields enqueue and transmitNext touch per packet sit together at
	// the top of the struct: the admission check, queue accounting, and
	// the serialization-delay memo then share a cache line or two instead
	// of faulting across the whole struct.
	net *Network
	// lossRate is an artificial random-loss probability (fault
	// injection for FEC and fault-tolerance experiments); enqueue checks
	// it on every packet.
	lossRate    float64
	queuedBytes int
	busy        bool

	// Serialization-delay memo: traffic is dominated by a handful of
	// packet sizes, so the float division in transmitNext is cached per
	// size. Same inputs give the same bits, so no timestamp can change.
	lastSize int
	lastTx   time.Duration

	queue    pktRing // awaiting transmission
	inflight pktRing // transmitted, propagating toward the far end

	sentPkts  uint64
	sentBytes uint64

	link topo.Link

	// sh is the shard owning the link (its From node's shard); every
	// enqueue/transmit on this link executes there. cross marks links
	// whose far end lives in a different shard: their deliveries travel
	// through the hand-off ring to dstShard instead of the local engine.
	sh       *shardState
	dstShard int
	cross    bool
	// rank mints this link's merge ranks. Both branches of transmitNext
	// draw the same number of ranks in the same order, so the stream is
	// identical however the topology is partitioned.
	rank eventsim.RankOwner
	// rng is the per-link loss stream, created on first SetLinkLoss.
	rng *rand.Rand

	// Preallocated event callbacks, one pair per link, so per-packet
	// scheduling closes over nothing.
	txDone  func()
	deliver func()

	drops uint64

	// fluid is the link's aggregate background-traffic state (fluid.go),
	// nil unless a fluid flow crosses the link — so packet-only runs pay
	// exactly one nil check per touch point and nothing else.
	fluid *fluidLink

	windowBytes    uint64
	lastWindowUtil float64
	smoothedUtil   *sketch.EWMA
}

func newLinkState(n *Network, l topo.Link) *linkState {
	ls := &linkState{net: n, link: l, smoothedUtil: sketch.NewEWMA(n.Cfg.UtilAlpha)}
	ls.sh = n.shards[n.shardOf[l.From]]
	ls.dstShard = int(n.shardOf[l.To])
	ls.cross = ls.sh.idx != ls.dstShard
	ls.rank = eventsim.NewRankOwner(uint64(len(n.G.Nodes)) + uint64(l.ID))
	ls.txDone = ls.transmitNext
	// Arrivals are FIFO: transmissions serialize on the link and every
	// packet adds the same propagation delay, so the earliest-scheduled
	// delivery is always the head of the inflight ring. deliverRun pops
	// the head and then fuses any same-instant delivery events queued
	// right behind this one (see network.go).
	ls.deliver = func() {
		ls.net.deliverRun(ls)
	}
	// The queue ring's byte cap admits at most QueueBytes/MinWireLen
	// packets, so flooring the ring there means steady state never grows
	// it (satellite: pre-size from the configured queue capacity). The
	// inflight ring has no such static bound — it tracks rate×delay, not
	// the queue cap — and keeps the default doubling.
	ls.queue.min = n.Cfg.QueueBytes / packet.MinWireLen
	return ls
}

// enqueue admits a packet to the FIFO or tail-drops it. It executes in
// ls.sh (the link's From-side shard), or on the main goroutine at a
// barrier when the coordinator injects traffic.
func (ls *linkState) enqueue(pkt *packet.Packet) {
	if ls.lossRate > 0 {
		if ls.rng.Float64() < ls.lossRate {
			ls.drops++
			ls.sh.dropsLoss++
			ls.sh.freePacket(pkt)
			return
		}
	}
	size := pkt.Len()
	if fl := ls.fluid; fl != nil {
		// The buffer is shared with the fluid backlog: foreground packets
		// tail-drop against the bytes background traffic has already
		// claimed. Deterministic — occupancy is analytic, no RNG draw.
		fl.advance(ls.sh.eng.Now())
		if float64(ls.queuedBytes+size)+fl.q > float64(ls.net.Cfg.QueueBytes) {
			ls.drops++
			ls.sh.dropsQueue++
			ls.sh.freePacket(pkt)
			return
		}
	} else if ls.queuedBytes+size > ls.net.Cfg.QueueBytes {
		ls.drops++
		ls.sh.dropsQueue++
		ls.sh.freePacket(pkt)
		return
	}
	ls.queue.push(pkt)
	ls.queuedBytes += size
	if !ls.busy {
		ls.transmitNext()
	}
}

// transmitNext starts sending the head-of-line packet. Arrival at the far
// end happens after transmission + propagation; the transmitter frees up
// after transmission alone, pipelining with propagation.
func (ls *linkState) transmitNext() {
	if ls.queue.len() == 0 {
		ls.busy = false
		return
	}
	ls.busy = true
	pkt := ls.queue.pop()
	size := pkt.Len()
	ls.queuedBytes -= size
	tx := ls.lastTx
	if size != ls.lastSize {
		tx = time.Duration(float64(size*8) / ls.link.BitsPerSec * float64(time.Second))
		if tx <= 0 {
			tx = time.Nanosecond
		}
		ls.lastSize, ls.lastTx = size, tx
	}
	ls.sentPkts++
	ls.sentBytes += uint64(size)
	ls.windowBytes += uint64(size)
	if fl := ls.fluid; fl != nil {
		// The serializer first clears the fluid backlog ahead of this
		// packet (FIFO added latency of q/C); the transmitter stays busy
		// for the wait too, which is the shared-capacity effect.
		fl.advance(ls.sh.eng.Now())
		if fl.q > 0 {
			// FIFO wait behind the existing backlog: the queue drains at
			// full capacity and bytes arriving later join behind this
			// packet, so the wait is exactly q/C.
			tx += time.Duration(fl.q / fl.cap * 1e9)
		} else if fl.in > 0 {
			// Empty fluid queue but live background load: in the packet
			// world this link would still hold a steady-state backlog of
			// background frames, throttling sustained foreground traffic
			// to the residual capacity C-F. Serve at that rate (processor
			// sharing), floored at 1% of capacity so a momentary F >= C
			// (the queue is about to grow) stays finite.
			resid := fl.cap - fl.in
			if resid < fl.cap*0.01 {
				resid = fl.cap * 0.01
			}
			if rtx := time.Duration(float64(size) / resid * 1e9); rtx > tx {
				tx = rtx
			}
		}
	}
	prop := time.Duration(ls.link.DelayNS)
	// Draw both ranks up front, in the same order for local and
	// cross-shard deliveries, so the link's rank stream advances
	// identically however the topology is partitioned.
	txR := ls.rank.Next()
	dlR := ls.rank.Next()
	ls.sh.eng.AfterRank(tx, txR, ls.txDone)
	if ls.cross {
		// Hand the delivery to the far shard at its exact merge position.
		// tx >= 1ns plus prop >= the group lookahead puts the arrival
		// strictly beyond the current window, which is what makes the
		// barrier protocol conservative.
		ls.sh.out[ls.dstShard].push(handoff{
			at:   ls.sh.eng.Now() + tx + prop,
			rank: dlR,
			link: ls.link.ID,
			pkt:  pkt,
		})
		return
	}
	ls.inflight.push(pkt)
	ev := ls.sh.eng.AfterRank(tx+prop, dlR, ls.deliver)
	ev.Class, ev.Key = classDeliver, int32(ls.link.ID)
}

// rollWindow closes the current utilization window. Fluid bytes served in
// the window count toward utilization exactly like transmitted packets, so
// boosters keyed on LinkLoad see background load they cannot packet-count.
func (ls *linkState) rollWindow(window time.Duration) {
	capacity := ls.link.BitsPerSec * window.Seconds()
	bits := float64(ls.windowBytes * 8)
	if fl := ls.fluid; fl != nil {
		// Runs at a barrier (the coordinator ticker), where every engine's
		// clock agrees, so advancing here closes the window exactly.
		fl.advance(fl.eng().Now())
		bits += fl.windowBytes * 8
		fl.windowBytes = 0
	}
	util := 0.0
	if capacity > 0 {
		util = bits / capacity
	}
	ls.lastWindowUtil = util
	ls.smoothedUtil.Observe(util)
	ls.windowBytes = 0
}
