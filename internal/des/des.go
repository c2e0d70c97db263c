// Package des implements a deterministic discrete-event scheduler.
//
// All simulations in fivegsim run on simulated time. Events are ordered by
// (time, sequence) so that two events scheduled for the same instant fire in
// scheduling order, which keeps runs reproducible.
//
// The scheduler is built for an allocation-free steady state: fired and
// reaped events are recycled through a per-scheduler free list (the
// scheduler is single-threaded, so no sync.Pool is involved), the priority
// queue is an inlined 4-ary min-heap that stores each event's time inline
// next to its pointer, and Timer handles are values carrying a generation
// counter so a stale handle can never touch a recycled event. Because
// (at, seq) is a total order, any min-heap pops events in exactly the same
// sequence — the firing order, and therefore every simulation output, is
// byte-identical to the pre-pooling scheduler.
//
// Lanes (see Lane) keep the heap small at production queue depth: a FIFO
// of arg-carrying events with non-decreasing times occupies one heap slot
// for its head instead of one per event, and reserves each event's seq
// when it is pushed, so the (at, seq) firing order is unchanged.
//
// The scheduler is optionally observable: SetObs attaches an obs.Registry
// (and optionally an obs.Tracer) under the `des.*` metric namespace —
// events scheduled/fired/canceled, the live queue depth with its
// high-water mark, and, behind the SetProfile opt-in, a per-callback
// wall-time histogram. With no registry attached the instrumentation
// collapses to nil-receiver no-ops.
package des

import (
	"time"

	"fivegsim/internal/obs"
)

// event is a scheduled callback. Events are owned by their scheduler and
// recycled through its free list; gen increments on every recycle so that
// stale Timer handles (whose gen no longer matches) become no-ops.
type event struct {
	seq uint64
	gen uint64
	// Exactly one of fn/afn is set while the event is live. afn carries
	// arg so hot paths can schedule a pre-bound function plus a pointer
	// payload without allocating a closure per event.
	fn  func()
	afn func(any)
	arg any
	sch *Scheduler
	// lane is set on a Lane's head event, which stands in the heap for
	// the lane's first pending item and is never recycled.
	lane *Lane
	// canceled events stay in the heap but are skipped when popped (or
	// reaped in bulk by compact).
	canceled bool
}

// Timer is a value handle to a scheduled event that can be canceled. The
// zero Timer is valid and inert. Handles stay safe after the event fires:
// the generation counter recorded at scheduling time no longer matches the
// recycled event, so Cancel and Active degrade to no-ops instead of
// touching whatever the slot was reused for.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Canceling an already-fired,
// already-canceled or zero Timer is a no-op — including when the fired
// event's storage has been recycled for a newer timer.
func (t Timer) Cancel() {
	e := t.ev
	if e == nil || e.gen != t.gen || e.canceled {
		return
	}
	e.canceled = true
	s := e.sch
	s.live--
	s.canceledInHeap++
	if s.o.on {
		s.o.canceled.Inc()
		s.o.depth.Set(int64(s.live))
	}
	// Reap lazily: once canceled-but-unreaped events outnumber live ones
	// the heap is mostly dead weight — compact it in one pass.
	if s.canceledInHeap > len(s.queue)/2 && s.canceledInHeap >= compactMin {
		s.compact()
	}
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled
}

// compactMin is the minimum number of canceled events before Cancel
// considers compacting; below it the lazy skip-on-pop reaping is cheaper.
const compactMin = 32

// schedObs holds the pre-resolved instrument handles. All fields are
// nil (no-op) until SetObs is called; `on` gates the hot-path updates
// behind a single predictable branch so the detached scheduler stays
// within a few percent of the uninstrumented one.
type schedObs struct {
	on        bool
	scheduled *obs.Counter
	fired     *obs.Counter
	canceled  *obs.Counter
	depth     *obs.Gauge
	simTime   *obs.Gauge
	cbWall    *obs.Histogram
	tracer    *obs.Tracer
	profile   bool
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulations are written in the callback style.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	queue   []heapEntry // inlined 4-ary min-heap on (at, seq)
	free    []*event    // recycled event structs
	stopped bool
	// live counts scheduled-but-not-yet-fired, non-canceled events; it
	// is what Pending reports (canceled events linger in the heap until
	// popped or compacted but are not pending work).
	live int
	// canceledInHeap counts canceled-but-unreaped events still occupying
	// heap slots; when they exceed half the heap, Cancel compacts.
	canceledInHeap int

	o schedObs
}

// New returns a scheduler with the clock at zero.
func New() *Scheduler { return &Scheduler{} }

// SetObs attaches telemetry under the `des.*` namespace. A nil registry
// detaches metrics; a nil tracer disables tracing. Call before the run.
func (s *Scheduler) SetObs(reg *obs.Registry, tracer *obs.Tracer) {
	if reg == nil {
		s.o = schedObs{tracer: tracer, profile: s.o.profile}
		return
	}
	s.o = schedObs{
		on:        true,
		scheduled: reg.Counter("des.events_scheduled"),
		fired:     reg.Counter("des.events_fired"),
		canceled:  reg.Counter("des.events_canceled"),
		depth:     reg.Gauge("des.queue_depth"),
		simTime:   reg.Gauge(obs.MetricSimTime),
		cbWall:    reg.Histogram("des.callback_wall_us", obs.DurationBuckets),
		tracer:    tracer,
		profile:   s.o.profile,
	}
}

// SetProfile opts into per-callback wall-time measurement: each fired
// event is timed with the wall clock, recorded into the
// `des.callback_wall_us` histogram and, when a tracer is attached,
// emitted as a span whose duration is the callback's CPU time. This
// costs two time.Now() calls per event; leave it off for benchmarks.
func (s *Scheduler) SetProfile(on bool) { s.o.profile = on }

// Now returns the current simulated time.
func (s *Scheduler) Now() time.Duration { return s.now }

// alloc takes an event from the free list (or makes one) and reserves
// its seq; the caller pushes it with its (clamped) time.
func (s *Scheduler) alloc() *event {
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{sch: s}
	}
	s.seq++
	ev.seq = s.seq
	return ev
}

// recycle returns a popped event to the free list. Bumping gen here is
// what turns every outstanding Timer for this event into a no-op.
func (s *Scheduler) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.canceled = false
	s.free = append(s.free, ev)
}

// clamp maps times in the past to the present.
func (s *Scheduler) clamp(at time.Duration) time.Duration {
	if at < s.now {
		return s.now
	}
	return at
}

// scheduled counts one newly scheduled event as live.
func (s *Scheduler) scheduled() {
	s.live++
	if s.o.on {
		s.o.scheduled.Inc()
		s.o.depth.Set(int64(s.live))
	}
}

// schedule finishes At/AtArg: heap insert plus telemetry.
func (s *Scheduler) schedule(at time.Duration, ev *event) Timer {
	s.heapPush(heapEntry{at: s.clamp(at), ev: ev})
	s.scheduled()
	return Timer{ev: ev, gen: ev.gen}
}

// At schedules fn to run at the absolute simulated time at. Times in the
// past are clamped to the present.
func (s *Scheduler) At(at time.Duration, fn func()) Timer {
	ev := s.alloc()
	ev.fn = fn
	return s.schedule(at, ev)
}

// AtArg schedules fn(arg) at the absolute simulated time at. It exists
// for hot paths that would otherwise allocate one closure per event: a
// pre-bound fn plus a pointer-shaped arg (e.g. *netsim.Packet) schedules
// with zero heap allocations in steady state.
func (s *Scheduler) AtArg(at time.Duration, fn func(any), arg any) Timer {
	ev := s.alloc()
	ev.afn = fn
	ev.arg = arg
	return s.schedule(at, ev)
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AfterArg schedules fn(arg) to run d after the current time.
func (s *Scheduler) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return s.AtArg(s.now+d, fn, arg)
}

// Stop halts Run/RunUntil after the current event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending reports the number of live events still queued. Canceled
// events awaiting heap reaping are not counted.
func (s *Scheduler) Pending() int { return s.live }

// QueueLen reports the raw heap length, including canceled-but-unreaped
// events (diagnostic; Pending is the queue-depth metric).
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// FreeListLen reports the number of recycled events awaiting reuse
// (diagnostic for the pooling tests).
func (s *Scheduler) FreeListLen() int { return len(s.free) }

// step executes the next event. It reports false when the queue is empty.
func (s *Scheduler) step(limit time.Duration, bounded bool) bool {
	for len(s.queue) > 0 {
		top := s.queue[0]
		if bounded && top.at > limit {
			return false
		}
		ev := top.ev
		var fn func()
		var afn func(any)
		var arg any
		if l := ev.lane; l != nil {
			// A lane's head: take its first item and re-key the head
			// slot in place to the next one (times never decrease along
			// a lane, so the key only grows and one sift-down restores
			// the heap), or drop the slot once the lane is empty.
			afn, arg = l.fn, l.pop()
			if l.n > 0 {
				next := &l.buf[l.first]
				ev.seq = next.seq
				s.queue[0].at = next.at
				s.siftDown(0)
			} else {
				s.heapPopHead()
			}
		} else {
			s.heapPopHead()
			if ev.canceled {
				s.canceledInHeap--
				s.recycle(ev)
				continue
			}
			fn, afn, arg = ev.fn, ev.afn, ev.arg
			// Recycle before the callback runs: the callback may schedule
			// new events that immediately reuse this struct (gen was
			// bumped, so any outstanding Timer for the fired event is
			// already inert).
			s.recycle(ev)
		}
		s.now = top.at
		s.live--
		if s.o.on {
			s.o.fired.Inc()
			s.o.depth.Set(int64(s.live))
		}
		if s.o.profile {
			t0 := time.Now()
			if afn != nil {
				afn(arg)
			} else {
				fn()
			}
			wall := time.Since(t0)
			s.o.cbWall.Observe(float64(wall) / float64(time.Microsecond))
			s.o.tracer.WallSpan("des.callback", "des", top.at, wall)
		} else if afn != nil {
			afn(arg)
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.step(0, false) {
	}
	if s.o.on {
		s.o.simTime.Set(int64(s.now))
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.stopped = false
	for !s.stopped && s.step(deadline, true) {
	}
	if s.now < deadline {
		s.now = deadline
	}
	if s.o.on {
		s.o.simTime.Set(int64(s.now))
	}
}

// ---- inlined 4-ary min-heap on (at, seq) ----
//
// A 4-ary heap halves the tree depth of the binary heap, cutting the
// sift-up comparisons on the push-heavy workload of a packet simulation.
// Each slot stores the event's time inline next to its pointer, so four
// children fill one cache line and a comparison dereferences an event
// only to break a tie on seq. less is the only ordering used anywhere, and
// it is a strict total order (seq is unique), so pop order — and thus
// simulation output — does not depend on the internal array layout.

// heapEntry is one heap slot: the event's firing time and the event,
// whose seq breaks ties.
type heapEntry struct {
	at time.Duration
	ev *event
}

func less(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ev.seq < b.ev.seq
}

func (s *Scheduler) heapPush(e heapEntry) {
	s.queue = append(s.queue, e)
	s.siftUp(len(s.queue) - 1)
}

func (s *Scheduler) heapPopHead() {
	q := s.queue
	n := len(q) - 1
	q[0] = q[n]
	q[n] = heapEntry{}
	s.queue = q[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

func (s *Scheduler) siftUp(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !less(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func (s *Scheduler) siftDown(i int) {
	q := s.queue
	n := len(q)
	e := q[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		// Smallest of up to four children.
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(q[c], q[min]) {
				min = c
			}
		}
		if !less(q[min], e) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = e
}

// compact removes every canceled event from the heap in one pass,
// recycles them, and restores the heap property bottom-up (Floyd). Pop
// order is unchanged — the heap invariant plus the total order on
// (at, seq) fully determine it. Lane heads are never canceled.
func (s *Scheduler) compact() {
	q := s.queue
	kept := q[:0]
	for _, e := range q {
		if e.ev.canceled {
			s.canceledInHeap--
			s.recycle(e.ev)
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(q); i++ {
		q[i] = heapEntry{}
	}
	s.queue = kept
	for i := (len(kept) - 2) >> 2; i >= 0; i-- {
		s.siftDown(i)
	}
}
