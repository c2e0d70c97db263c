package netsim

import (
	"time"

	"fivegsim/internal/des"
)

// Saturator drives saturating CBR traffic over one long-lived path. Where
// RunUDP builds a fresh scheduler and path per call — thousands of
// allocations of hops, pools and rings that dominate short runs — a
// Saturator constructs them once and advances the same simulation in
// slices: in-flight packets, pool inventory and cross-traffic state carry
// over between slices, so every slice after the first measures the
// steady state, and on a warmed path a slice allocates nothing (the
// alloc guard in alloc_test.go pins this). This is the engine under the
// rewritten PathSaturate benchmark.
type Saturator struct {
	sch      *des.Scheduler
	path     *Path
	offered  float64
	rttBase  time.Duration
	interval time.Duration

	seq, sent, received int64
	receivedBytes       int64

	tick    func()
	started bool
}

// NewSaturator builds the path for cfg and prepares a CBR source at
// offeredBps. Nothing runs until the first RunSlice.
func NewSaturator(cfg PathConfig, offeredBps float64) *Saturator {
	sch := des.New()
	s := &Saturator{
		sch:      sch,
		path:     NewPath(sch, cfg),
		offered:  offeredBps,
		rttBase:  cfg.BaseRTT(),
		interval: time.Duration(float64((MSS+HeaderBytes)*8) / offeredBps * float64(time.Second)),
	}
	s.path.ToUE = ReceiverFunc(func(p *Packet) {
		s.received++
		s.receivedBytes += int64(p.Len)
	})
	// Provision the packet pool and the scheduler's event free list past
	// their worst-case occupancy up front. Both are bounded — every hop
	// queue is byte-limited drop-tail and the cross-traffic rate is capped
	// — but the busy-period draws are heavy-tailed enough that the
	// high-water mark keeps inching up for simulated hours, and each new
	// record is an allocation in what must be an allocation-free steady
	// state (TestSaturatorSliceAllocFree). The bound: ≈3500 full-size
	// packets fill every buffer, plus the pump's one-tick backlog; events
	// and delivery-lane slots track in-flight packets at most one-to-one
	// plus the handful of sources.
	const prime = 8192
	pkts := make([]*Packet, prime)
	for i := range pkts {
		pkts[i] = s.path.Pool.Get()
	}
	for _, p := range pkts {
		s.path.Pool.Release(p)
	}
	for i := 0; i < prime; i++ {
		sch.After(0, func() {})
	}
	sch.RunUntil(0)
	s.path.reserveLanes(prime)
	// One self-perpetuating source event, bound once: each firing sends a
	// full MSS datagram and re-arms itself, exactly RunUDP's send loop.
	// The chain never stops — RunSlice bounds execution with the
	// scheduler deadline, leaving the next send queued for the following
	// slice.
	s.tick = func() {
		p := s.path.Pool.Get()
		p.FlowID, p.Seq, p.Len, p.Wire, p.SentAt = 1, s.seq, MSS, MSS+HeaderBytes, s.sch.Now()
		s.path.ServerIngress.Receive(p)
		s.seq++
		s.sent++
		s.sch.After(s.interval, s.tick)
	}
	return s
}

// RunSlice advances the simulation by d of saturating traffic and
// returns the delivery statistics of that slice alone (sent, received,
// loss and goodput are deltas over the slice). Packets in flight at the
// slice boundary carry over: they count as sent in this slice and as
// received in the one that drains them, which at saturation cancels out
// — the steady state RunUDP only approximates with its one-second drain
// tail.
func (s *Saturator) RunSlice(d time.Duration) UDPResult {
	if !s.started {
		s.started = true
		s.tick()
	}
	sent0, recv0, bytes0 := s.sent, s.received, s.receivedBytes
	s.sch.RunUntil(s.sch.Now() + d)
	res := UDPResult{
		OfferedBps: s.offered,
		RTTBase:    s.rttBase,
		Sent:       s.sent - sent0,
		Received:   s.received - recv0,
	}
	if res.Sent > 0 {
		res.LossRate = 1 - float64(res.Received)/float64(res.Sent)
	}
	res.DeliveredBps = float64((s.receivedBytes-bytes0)*8) / d.Seconds()
	return res
}

// Now returns the saturator's simulated clock (total time advanced).
func (s *Saturator) Now() time.Duration { return s.sch.Now() }
