package des

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fivegsim/internal/obs"
)

// laneHarness drives one scheduler through a random mix of lane pushes,
// plain At events and cancels. With lanes == nil every lane push is an
// AtArg event instead: the reference the lane run must match. Callbacks
// draw further actions from the harness rng, so the two runs draw the
// same numbers only while they fire the same events in the same order.
type laneHarness struct {
	s      *Scheduler
	reg    *obs.Registry
	r      *rand.Rand
	lanes  []*Lane
	lastAt []time.Duration
	timers []Timer
	log    []string
	nextID int
	budget int
	// early counts lane pushes earlier than that lane's tail.
	early int
}

func newLaneHarness(seed int64, useLanes bool) *laneHarness {
	h := &laneHarness{s: New(), reg: obs.NewRegistry(), r: rand.New(rand.NewSource(seed)), budget: 400}
	h.s.SetObs(h.reg, nil)
	h.lastAt = make([]time.Duration, 3)
	if useLanes {
		for range h.lastAt {
			h.lanes = append(h.lanes, h.s.NewLane(h.fireArg))
		}
	}
	return h
}

func (h *laneHarness) fireArg(a any) {
	h.log = append(h.log, fmt.Sprintf("%v lane %d", h.s.Now(), a.(int)))
	h.act()
}

// act performs one or two random actions, while the budget lasts.
func (h *laneHarness) act() {
	for k := h.r.Intn(2) + 1; k > 0 && h.budget > 0; k-- {
		h.budget--
		now := h.s.Now()
		switch op := h.r.Intn(10); {
		case op < 6: // lane push: mostly monotone, sometimes earlier than the tail
			k := h.r.Intn(len(h.lastAt))
			var at time.Duration
			if h.r.Intn(5) == 0 {
				at = now + time.Duration(h.r.Intn(8))*time.Microsecond
			} else {
				at = max(h.lastAt[k], now) + time.Duration(h.r.Intn(3))*time.Microsecond
			}
			if at < h.lastAt[k] {
				h.early++
			}
			h.lastAt[k] = max(h.lastAt[k], at)
			id := h.nextID
			h.nextID++
			if h.lanes != nil {
				h.lanes[k].At(at, id)
			} else {
				h.s.AtArg(at, h.fireArg, id)
			}
		case op < 9: // plain event, on the same coarse grid so ties happen
			id := h.nextID
			h.nextID++
			at := now + time.Duration(h.r.Intn(8))*time.Microsecond
			h.timers = append(h.timers, h.s.At(at, func() {
				h.log = append(h.log, fmt.Sprintf("%v plain %d", h.s.Now(), id))
				h.act()
			}))
		default: // cancel a random earlier timer (possibly fired already)
			if len(h.timers) > 0 {
				h.timers[h.r.Intn(len(h.timers))].Cancel()
			}
		}
	}
}

func (h *laneHarness) counters() string {
	return fmt.Sprintf("scheduled=%d fired=%d canceled=%d depth=%d depth_max=%d",
		h.reg.Counter("des.events_scheduled").Value(),
		h.reg.Counter("des.events_fired").Value(),
		h.reg.Counter("des.events_canceled").Value(),
		h.reg.Gauge("des.queue_depth").Value(),
		h.reg.Gauge("des.queue_depth").Max())
}

// TestLaneMatchesAtArgProperty: random monotone and non-monotone lane
// pushes, interleaved with plain events and cancels, fire in exactly the
// (time, event) sequence of the same script run on AtArg events alone,
// with the same Pending count at every RunUntil boundary and the same
// des.* counters.
func TestLaneMatchesAtArgProperty(t *testing.T) {
	early, fired := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		lane, ref := newLaneHarness(seed, true), newLaneHarness(seed, false)
		for _, h := range []*laneHarness{lane, ref} {
			for i := 0; i < 8; i++ {
				h.act()
			}
		}
		for step := 1; step <= 40; step++ {
			deadline := time.Duration(step*3) * time.Microsecond
			lane.s.RunUntil(deadline)
			ref.s.RunUntil(deadline)
			if lane.s.Pending() != ref.s.Pending() {
				t.Fatalf("seed %d at %v: Pending %d with lanes, %d with AtArg", seed, deadline, lane.s.Pending(), ref.s.Pending())
			}
		}
		lane.s.Run()
		ref.s.Run()
		if len(lane.log) != len(ref.log) {
			t.Fatalf("seed %d: %d events fired with lanes, %d with AtArg", seed, len(lane.log), len(ref.log))
		}
		for i := range ref.log {
			if lane.log[i] != ref.log[i] {
				t.Fatalf("seed %d: event %d is %q with lanes, %q with AtArg", seed, i, lane.log[i], ref.log[i])
			}
		}
		if got, want := lane.counters(), ref.counters(); got != want {
			t.Fatalf("seed %d: counters %s with lanes, %s with AtArg", seed, got, want)
		}
		if lane.s.Pending() != 0 || lane.s.QueueLen() != 0 {
			t.Fatalf("seed %d: Pending/QueueLen = %d/%d after drain", seed, lane.s.Pending(), lane.s.QueueLen())
		}
		early += lane.early
		fired += len(lane.log)
	}
	if early == 0 || fired < 200*100 {
		t.Fatalf("script too weak: %d early pushes, %d events fired over 200 seeds", early, fired)
	}
	t.Logf("%d events fired, %d lane pushes earlier than the tail", fired, early)
}

// TestLaneHoldsOneHeapSlot: a monotone lane occupies a single heap slot
// however many events it holds, and a push earlier than its tail falls
// back to an ordinary event that still fires in time order.
func TestLaneHoldsOneHeapSlot(t *testing.T) {
	s := New()
	var got []int
	l := s.NewLane(func(a any) { got = append(got, a.(int)) })
	for i := 0; i < 100; i++ {
		l.At(time.Duration(10+i)*time.Microsecond, i)
	}
	if s.QueueLen() != 1 || s.Pending() != 100 {
		t.Fatalf("QueueLen/Pending = %d/%d, want 1/100", s.QueueLen(), s.Pending())
	}
	l.At(5*time.Microsecond, -1) // earlier than the tail: ordinary event
	if s.QueueLen() != 2 || s.Pending() != 101 {
		t.Fatalf("after fallback QueueLen/Pending = %d/%d, want 2/101", s.QueueLen(), s.Pending())
	}
	s.Run()
	if len(got) != 101 || got[0] != -1 {
		t.Fatalf("fired %d events starting %v, want the fallback first", len(got), got[:1])
	}
	for i, v := range got[1:] {
		if v != i {
			t.Fatalf("lane event %d fired as %d", i, v)
		}
	}
}

// TestLaneSteadyStateAllocFree: a warmed (or reserved) lane schedules and
// fires without allocating.
func TestLaneSteadyStateAllocFree(t *testing.T) {
	s := New()
	sink := 0
	l := s.NewLane(func(a any) { sink += *a.(*int) })
	l.Reserve(64)
	payload := 1
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			l.At(s.Now()+time.Duration(i)*time.Microsecond, &payload)
		}
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state lane allocates %.2f allocs/op, want 0", avg)
	}
}
