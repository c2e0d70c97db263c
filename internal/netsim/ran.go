package netsim

import (
	"math/rand"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
)

// RANHop models the radio access hop: a deep base-station buffer feeding
// the air interface. Every transport block goes through HARQ — losses on
// the air never surface to the transport layer ("we can safely conclude
// that the packet loss bottleneck is not on the 5G wireless link", §4.2) —
// but retransmissions consume airtime and add jitter.
//
// Like Hop, the per-packet path is allocation-free in steady state: ring
// buffer queue, a single serializer slot (plus the HARQ outcome drawn for
// it), callbacks bound once at construction, and a des.Lane for the
// in-order delivery leg.
type RANHop struct {
	Name string

	sch      *des.Scheduler
	rateBps  float64
	prop     time.Duration
	limit    int
	next     Receiver
	harq     radio.HARQ
	harqRTT  time.Duration // per-retransmission round trip on the air
	airScale float64
	rng      *rand.Rand

	queue         pktRing
	queuedBytes   int
	busy          bool
	outageUntil   time.Duration
	lastDeliverAt time.Duration
	rateScale     float64 // fault-injection degradation; 0 means no scaling

	// Serializer state for the in-flight block: the packet, its HARQ
	// outcome, and the retransmission latency it accrued. One block at a
	// time, so plain fields replace the per-packet closure.
	inflight      *Packet
	inflightLost  bool
	inflightExtra time.Duration
	serveFn       func()
	txDoneFn      func()
	deliver       *des.Lane // in-order delivery: times never decrease

	// pool, when set, recycles pool-owned packets terminated here
	// (buffer drops, HARQ residual loss).
	pool *PacketPool

	// Stats.
	Forwarded    int64
	Dropped      int64
	MaxQueued    int
	AttemptsHist [8]int64 // HARQ attempts histogram (index = attempts, capped)
	ResidualLoss int64

	// Telemetry handles (nil = off), resolved once by SetObs.
	cEnq      *obs.Counter
	cDrop     *obs.Counter
	cFwd      *obs.Counter
	cBytes    *obs.Counter
	cRetx     *obs.Counter
	occ       *obs.Histogram
	trace     *obs.Tracer
	dropLabel string
}

// SetObs attaches `netsim.*{hop=Name}` instruments, plus a HARQ
// retransmission counter (attempts beyond the first).
func (h *RANHop) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil && tr == nil {
		return
	}
	label := "{hop=" + h.Name + "}"
	h.cEnq = reg.Counter("netsim.pkt_enqueued" + label)
	h.cDrop = reg.Counter("netsim.pkt_dropped" + label)
	h.cFwd = reg.Counter("netsim.pkt_delivered" + label)
	h.cBytes = reg.Counter("netsim.bytes_delivered" + label)
	h.cRetx = reg.Counter("netsim.harq_retx" + label)
	h.occ = reg.Histogram("netsim.occupancy_bytes"+label, obs.ByteBuckets)
	h.trace = tr
}

// SetPool attaches the pool used to recycle pool-owned packets the hop
// terminates.
func (h *RANHop) SetPool(pl *PacketPool) { h.pool = pl }

// NewRANHop builds the radio hop for a technology. rateBps is the
// foreground goodput of the air interface (PRB share and MCS already
// applied); use SetRate for time-varying goodput.
func NewRANHop(sch *des.Scheduler, tech radio.Tech, rateBps float64, prop time.Duration, limitBytes int, rng *rand.Rand, next Receiver) *RANHop {
	harqRTT := 8 * time.Millisecond // LTE HARQ round trip
	if tech == radio.NR {
		harqRTT = 2500 * time.Microsecond // NR slot-level feedback
	}
	harq := radio.HARQFor(tech)
	h := &RANHop{
		Name: tech.String() + "-RAN", sch: sch,
		rateBps: rateBps,
		prop:    prop,
		limit:   limitBytes, next: next, harq: harq, harqRTT: harqRTT,
		// rateBps is the goodput; the air runs faster by the mean HARQ
		// attempt count so retransmission airtime is already budgeted.
		airScale: harq.MeanAttempts(),
		rng:      rng,
	}
	h.dropLabel = "drop " + h.Name
	h.serveFn = h.serve
	h.txDoneFn = h.txDone
	h.deliver = sch.NewLane(func(a any) { h.next.Receive(a.(*Packet)) })
	return h
}

// SetRate changes the foreground goodput of the air interface. It takes
// effect for the next block entering the serializer.
func (h *RANHop) SetRate(bps float64) { h.rateBps = bps }

// Rate returns the configured goodput (before fault scaling).
func (h *RANHop) Rate() float64 { return h.rateBps }

// QueuedBytes returns the current backlog.
func (h *RANHop) QueuedBytes() int { return h.queuedBytes }

// SetOutage suspends the air interface for d (a hand-off interruption):
// packets keep arriving and are buffered; service resumes afterwards.
func (h *RANHop) SetOutage(d time.Duration) {
	until := h.sch.Now() + d
	if until > h.outageUntil {
		h.outageUntil = until
	}
}

// SetRateScale scales the air-interface rate by s (a fault-injection
// degradation window: weak MCS at the coverage edge); s ≤ 0 or s = 1
// restores the configured rate.
func (h *RANHop) SetRateScale(s float64) {
	if s <= 0 || s == 1 {
		h.rateScale = 0
		return
	}
	h.rateScale = s
}

// Receive implements Receiver.
func (h *RANHop) Receive(p *Packet) {
	if h.queuedBytes+p.Wire > h.limit {
		h.Dropped++
		h.cDrop.Inc()
		h.trace.Instant(h.dropLabel, "netsim", h.sch.Now())
		h.pool.Release(p)
		return
	}
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

func (h *RANHop) serve() {
	if h.queue.len() == 0 {
		h.busy = false
		return
	}
	h.busy = true
	if now := h.sch.Now(); now < h.outageUntil {
		h.sch.After(h.outageUntil-now, h.serveFn)
		return
	}
	rate := h.rateBps * h.airScale
	if h.rateScale > 0 {
		rate *= h.rateScale
	}
	if rate <= 0 {
		// Link stalled: retry shortly, head-of-line packet stays queued.
		h.sch.After(time.Millisecond, h.serveFn)
		return
	}
	p := h.queue.pop()
	h.queuedBytes -= p.Wire
	attempts, lost := h.harq.Attempts(h.rng.Float64())
	idx := attempts
	if idx >= len(h.AttemptsHist) {
		idx = len(h.AttemptsHist) - 1
	}
	h.AttemptsHist[idx]++
	if attempts > 1 {
		h.cRetx.Add(int64(attempts - 1))
	}
	// Each attempt occupies airtime; the scheduler's parallel HARQ
	// processes keep the link busy meanwhile, so the serializer is held
	// only for the airtime while the HARQ round trips show up as extra
	// per-packet latency (and mild reordering), not lost capacity.
	txTime := time.Duration(float64(p.Wire*8*attempts) / rate * float64(time.Second))
	h.inflight = p
	h.inflightLost = lost
	h.inflightExtra = time.Duration(attempts-1) * h.harqRTT
	h.sch.After(txTime, h.txDoneFn)
}

func (h *RANHop) txDone() {
	p, lost, extraLatency := h.inflight, h.inflightLost, h.inflightExtra
	h.inflight = nil
	if lost {
		h.ResidualLoss++ // probability ≈ 10⁻⁵⁶; tracked for completeness
		h.pool.Release(p)
	} else {
		h.Forwarded++
		h.cFwd.Inc()
		h.cBytes.Add(int64(p.Wire))
		// RLC in-order delivery: a block held up by HARQ round trips
		// also holds back its successors (head-of-line jitter), so
		// the transport layer never sees radio-induced reordering.
		deliverAt := h.sch.Now() + h.prop + extraLatency
		if deliverAt < h.lastDeliverAt {
			deliverAt = h.lastDeliverAt
		}
		h.lastDeliverAt = deliverAt
		h.deliver.At(deliverAt, p)
	}
	h.serve()
}

// Retransmissions returns the HARQ attempts histogram normalized over
// blocks needing more than one attempt — the Fig. 10 series.
func (h *RANHop) Retransmissions() map[int]float64 {
	var total int64
	for _, c := range h.AttemptsHist {
		total += c
	}
	out := map[int]float64{}
	if total == 0 {
		return out
	}
	for attempts, c := range h.AttemptsHist {
		if attempts >= 2 && c > 0 {
			out[attempts-1] = float64(c) / float64(total)
		}
	}
	return out
}
