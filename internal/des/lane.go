package des

import "time"

// Lane is a FIFO delay line for arg-carrying events that share one
// callback: a link's propagation stage, where packets leave in the order
// they entered. Only the lane's head occupies a heap slot; the rest wait
// in a ring buffer, so a link with hundreds of packets in flight costs the
// heap one entry instead of hundreds.
//
// The determinism contract is kept by reserving each event's seq when it
// is pushed, exactly as AtArg would: the head's heap slot carries the
// head's reserved (at, seq) key, and because a lane only accepts times
// that do not decrease, its items are already in (at, seq) order. A push
// earlier than the lane's tail (a delay that shrank while packets were in
// flight) would break that order, so it is scheduled as an ordinary event
// instead. Either way every event fires at the same (at, seq) position it
// would hold as an AtArg event, and it counts as scheduled, live and fired
// the same way. Lane events cannot be canceled.
type Lane struct {
	sch *Scheduler
	fn  func(any)
	// head stands in the heap for buf's first item while the lane is
	// non-empty; its seq is that item's reserved seq.
	head event

	buf    []laneItem // ring buffer, power-of-two length
	first  int
	n      int
	tailAt time.Duration // time of the last item pushed onto buf
}

type laneItem struct {
	at  time.Duration
	seq uint64
	arg any
}

// NewLane returns an empty lane whose events run fn(arg).
func (s *Scheduler) NewLane(fn func(any)) *Lane {
	l := &Lane{sch: s, fn: fn}
	l.head.sch = s
	l.head.lane = l
	return l
}

// At schedules fn(arg) at the absolute simulated time at, clamped to the
// present like AtArg.
func (l *Lane) At(at time.Duration, arg any) {
	s := l.sch
	at = s.clamp(at)
	if l.n > 0 && at < l.tailAt {
		s.AtArg(at, l.fn, arg)
		return
	}
	s.seq++
	l.push(laneItem{at: at, seq: s.seq, arg: arg})
	l.tailAt = at
	if l.n == 1 {
		l.head.seq = s.seq
		s.heapPush(heapEntry{at: at, ev: &l.head})
	}
	s.scheduled()
}

// Reserve grows the ring buffer to hold at least n events, so a lane
// primed past its high-water mark never allocates.
func (l *Lane) Reserve(n int) {
	if n > len(l.buf) {
		l.resize(n)
	}
}

func (l *Lane) push(it laneItem) {
	if l.n == len(l.buf) {
		l.resize(l.n + 1)
	}
	l.buf[(l.first+l.n)&(len(l.buf)-1)] = it
	l.n++
}

// pop removes and returns the first item's arg.
func (l *Lane) pop() any {
	it := &l.buf[l.first]
	arg := it.arg
	*it = laneItem{}
	l.first = (l.first + 1) & (len(l.buf) - 1)
	l.n--
	return arg
}

// resize moves the ring into a power-of-two buffer of at least min slots.
func (l *Lane) resize(min int) {
	size := 16
	for size < min {
		size *= 2
	}
	buf := make([]laneItem, size)
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.first+i)&(len(l.buf)-1)]
	}
	l.buf = buf
	l.first = 0
}
