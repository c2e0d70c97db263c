package netsim

import (
	"math/rand"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/obs"
)

// Hop is one store-and-forward element: a drop-tail FIFO buffer feeding a
// fixed-rate serializer, followed by a propagation delay. It is the router
// model under the paper's §4.2 buffer analysis.
//
// The per-packet path is allocation-free in steady state: the queue is a
// ring buffer, the serializer holds its single in-flight packet in a
// struct slot, and the scheduler callbacks (serve retry, tx complete,
// delivery) are bound once at construction. The delivery leg is a
// des.Lane: packets leave the serializer in order and share one
// propagation delay, so the whole propagation stage holds one heap slot.
type Hop struct {
	Name string

	sch     *des.Scheduler
	rateBps float64
	prop    time.Duration
	// limitBytes is the buffer size; at or beyond it arriving packets are
	// dropped (drop-tail), the behaviour the paper's bursty loss pattern
	// (Fig. 11) implicates.
	limitBytes int
	next       Receiver

	queue       pktRing
	queuedBytes int
	busy        bool
	lockout     bool

	// inflight is the packet occupying the serializer; the pre-bound
	// callbacks below are what keep the hot path closure-free.
	inflight *Packet
	serveFn  func()
	txDoneFn func()
	deliver  *des.Lane

	// pool, when set, recycles pool-owned packets this hop terminates
	// (drops). Nil is a no-op.
	pool *PacketPool

	// Fault-injection state (see internal/fault). All three default to
	// the pass-through zero values, so an unfaulted hop behaves exactly
	// as before.
	injectLoss float64
	injectRng  *rand.Rand
	extraProp  time.Duration
	rateScale  float64 // 0 means no scaling

	// Stats.
	Forwarded  int64
	Dropped    int64
	DropEvents int64 // distinct overflow episodes
	inDrop     bool
	MaxQueued  int

	// OnDrop, if set, observes every dropped packet (before any pool
	// release — the packet is still intact inside the callback).
	OnDrop func(p *Packet)

	// Telemetry handles (nil = off), resolved once by SetObs; dropLabel
	// is pre-formatted so the obs-on drop path does no per-packet
	// string building.
	cEnq      *obs.Counter
	cDrop     *obs.Counter
	cFwd      *obs.Counter
	cBytes    *obs.Counter
	occ       *obs.Histogram
	trace     *obs.Tracer
	dropLabel string
}

// SetObs attaches `netsim.*{hop=Name}` instruments: packets
// enqueued/dropped/delivered, delivered bytes, and a buffer-occupancy
// histogram sampled at each enqueue. Drops additionally emit tracer
// instants so overflow episodes are visible on the trace timeline.
func (h *Hop) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil && tr == nil {
		return
	}
	label := "{hop=" + h.Name + "}"
	h.cEnq = reg.Counter("netsim.pkt_enqueued" + label)
	h.cDrop = reg.Counter("netsim.pkt_dropped" + label)
	h.cFwd = reg.Counter("netsim.pkt_delivered" + label)
	h.cBytes = reg.Counter("netsim.bytes_delivered" + label)
	h.occ = reg.Histogram("netsim.occupancy_bytes"+label, obs.ByteBuckets)
	h.trace = tr
}

// SetPool attaches the pool used to recycle pool-owned packets the hop
// drops.
func (h *Hop) SetPool(pl *PacketPool) { h.pool = pl }

// drop records one dropped packet in the stats and telemetry, then
// recycles it if pool-owned.
func (h *Hop) drop(p *Packet) {
	h.Dropped++
	h.cDrop.Inc()
	h.trace.Instant(h.dropLabel, "netsim", h.sch.Now())
	if h.OnDrop != nil {
		h.OnDrop(p)
	}
	h.pool.Release(p)
}

// NewHop creates a hop serving at rateBps with the given propagation
// delay and buffer limit. Use SetRate for time-varying links.
func NewHop(sch *des.Scheduler, name string, rateBps float64, prop time.Duration, limitBytes int, next Receiver) *Hop {
	h := &Hop{
		Name: name, sch: sch, rateBps: rateBps, prop: prop,
		limitBytes: limitBytes, next: next,
		dropLabel: "drop " + name,
	}
	h.serveFn = h.serve
	h.txDoneFn = h.txDone
	h.deliver = sch.NewLane(func(a any) { h.next.Receive(a.(*Packet)) })
	return h
}

// SetRate changes the serving rate. It takes effect for the next packet
// entering the serializer.
func (h *Hop) SetRate(bps float64) { h.rateBps = bps }

// Rate returns the configured serving rate (before fault scaling).
func (h *Hop) Rate() float64 { return h.rateBps }

// QueuedBytes returns the current backlog.
func (h *Hop) QueuedBytes() int { return h.queuedBytes }

// SetInjectLoss arms (or, with rate ≤ 0, disarms) an i.i.d. drop
// probability applied to arriving packets before they are buffered —
// the fault layer's loss-burst window. Drops count into the hop's
// regular drop statistics and telemetry.
func (h *Hop) SetInjectLoss(rate float64, r *rand.Rand) {
	if rate <= 0 {
		h.injectLoss, h.injectRng = 0, nil
		return
	}
	h.injectLoss, h.injectRng = rate, r
}

// SetExtraProp adds d to the propagation delay of every subsequent
// delivery (a latency-burst window); d = 0 restores the baseline. When d
// shrinks, packets sent afterwards may overtake those still in flight;
// the delivery lane schedules each such packet as an ordinary event, so
// deliveries keep their exact times.
func (h *Hop) SetExtraProp(d time.Duration) { h.extraProp = d }

// SetRateScale scales the serving rate by s (a degradation window,
// 0 < s < 1); s ≤ 0 or s = 1 restores the configured rate.
func (h *Hop) SetRateScale(s float64) {
	if s <= 0 || s == 1 {
		h.rateScale = 0
		return
	}
	h.rateScale = s
}

// reliefBytes is the low watermark below which an overflowed queue starts
// accepting again. Hardware queues commonly drop until a watermark clears;
// this lockout is what turns an overflow episode into a run of consecutive
// foreground losses (the bursty pattern of Fig. 11).
const reliefBytes = 64 << 10

// Receive implements Receiver: enqueue or drop.
func (h *Hop) Receive(p *Packet) {
	if h.injectLoss > 0 && h.injectRng.Float64() < h.injectLoss {
		h.drop(p)
		return
	}
	relief := reliefBytes
	if relief > h.limitBytes/2 {
		relief = h.limitBytes / 2
	}
	if h.lockout && h.queuedBytes > h.limitBytes-relief {
		h.drop(p)
		return
	}
	h.lockout = false
	if h.queuedBytes+p.Wire > h.limitBytes {
		h.lockout = true
		if !h.inDrop {
			h.DropEvents++
			h.inDrop = true
		}
		h.drop(p)
		return
	}
	h.inDrop = false
	h.queue.push(p)
	h.queuedBytes += p.Wire
	if h.queuedBytes > h.MaxQueued {
		h.MaxQueued = h.queuedBytes
	}
	h.cEnq.Inc()
	h.occ.Observe(float64(h.queuedBytes))
	if !h.busy {
		h.serve()
	}
}

// serve starts transmitting the head-of-line packet.
func (h *Hop) serve() {
	if h.queue.len() == 0 {
		h.busy = false
		return
	}
	h.busy = true
	rate := h.rateBps
	if h.rateScale > 0 {
		rate *= h.rateScale
	}
	if rate <= 0 {
		// Link stalled (e.g. hand-off outage): retry shortly. The packet
		// stays queued at the head.
		h.sch.After(time.Millisecond, h.serveFn)
		return
	}
	p := h.queue.pop()
	h.queuedBytes -= p.Wire
	h.inflight = p
	txTime := time.Duration(float64(p.Wire*8) / rate * float64(time.Second))
	h.sch.After(txTime, h.txDoneFn)
}

// txDone fires when the serializer finishes the in-flight packet: hand
// it to the propagation stage and start on the next one.
func (h *Hop) txDone() {
	p := h.inflight
	h.inflight = nil
	h.Forwarded++
	h.cFwd.Inc()
	h.cBytes.Add(int64(p.Wire))
	h.deliver.At(h.sch.Now()+h.prop+h.extraProp, p)
	h.serve()
}
