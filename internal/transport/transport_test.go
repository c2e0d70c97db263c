package transport

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
)

func TestIntervalSetAddAndCoalesce(t *testing.T) {
	var s intervalSet
	s.Add(10, 20)
	s.Add(30, 40)
	s.Add(20, 30) // bridges the gap
	if s.Len() != 1 || s.Total() != 30 {
		t.Fatalf("coalesce failed: len=%d total=%d", s.Len(), s.Total())
	}
	if !s.Covers(10, 40) || s.Covers(9, 11) {
		t.Fatal("Covers wrong")
	}
	s.TrimBelow(25)
	if s.Total() != 15 {
		t.Fatalf("TrimBelow total = %d, want 15", s.Total())
	}
	r, ok := s.NextAbove(0)
	if !ok || r.lo != 25 || r.hi != 40 {
		t.Fatalf("NextAbove = %+v", r)
	}
}

func TestIntervalSetProperties(t *testing.T) {
	f := func(pairs []uint16) bool {
		var s intervalSet
		type iv struct{ lo, hi int64 }
		var added []iv
		for i := 0; i+1 < len(pairs); i += 2 {
			lo := int64(pairs[i])
			hi := lo + int64(pairs[i+1]%100) + 1
			s.Add(lo, hi)
			added = append(added, iv{lo, hi})
		}
		// Invariants: sorted, disjoint, total = covered bytes, everything
		// added is covered.
		var total int64
		prev := int64(-1)
		for _, r := range s.ranges {
			if r.lo <= prev || r.hi <= r.lo {
				return false
			}
			prev = r.hi
			total += r.hi - r.lo
		}
		if total != s.Total() {
			return false
		}
		for _, a := range added {
			if !s.Covers(a.lo, a.hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalSetReplace(t *testing.T) {
	var s intervalSet
	s.Add(0, 100)
	s.Replace([][2]int64{{10, 20}, {30, 40}}, 15)
	if s.Total() != 15 { // [15,20) + [30,40)
		t.Fatalf("Replace total = %d, want 15", s.Total())
	}
}

// bitmapSet is the reference model for intervalSet: one bool per byte.
type bitmapSet []bool

// runs returns the maximal runs of set bytes, the exact ranges a
// coalesced intervalSet must hold.
func (b bitmapSet) runs() []byteRange {
	var out []byteRange
	for i := 0; i < len(b); i++ {
		if !b[i] {
			continue
		}
		j := i
		for j < len(b) && b[j] {
			j++
		}
		out = append(out, byteRange{int64(i), int64(j)})
		i = j
	}
	return out
}

// TestIntervalSetMatchesBitmap drives random Add, TrimBelow and Replace
// calls against a byte bitmap and requires, after every call, the same
// ranges (sorted, disjoint, coalesced), the same Total, and agreeing
// Covers and NextAbove answers.
func TestIntervalSetMatchesBitmap(t *testing.T) {
	const universe = 256
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var s intervalSet
		ref := make(bitmapSet, universe)
		for step := 0; step < 60; step++ {
			switch op := r.Intn(10); {
			case op < 6:
				lo := int64(r.Intn(universe))
				hi := lo + int64(r.Intn(24))
				if hi > universe {
					hi = universe
				}
				s.Add(lo, hi)
				for i := lo; i < hi; i++ {
					ref[i] = true
				}
			case op < 8:
				seq := int64(r.Intn(universe / 4))
				s.TrimBelow(seq)
				for i := int64(0); i < seq; i++ {
					ref[i] = false
				}
			default:
				// Replace with another coalesced map, clipped to a floor.
				src := make(bitmapSet, universe)
				for k := r.Intn(5); k > 0; k-- {
					lo := r.Intn(universe)
					for i := lo; i < lo+r.Intn(32) && i < universe; i++ {
						src[i] = true
					}
				}
				var blocks [][2]int64
				for _, b := range src.runs() {
					blocks = append(blocks, [2]int64{b.lo, b.hi})
				}
				floor := int64(r.Intn(universe / 2))
				s.Replace(blocks, floor)
				for i := range ref {
					ref[i] = src[i] && int64(i) >= floor
				}
			}
			want := ref.runs()
			if len(s.ranges) != len(want) {
				t.Fatalf("trial %d step %d: ranges %v, want %v", trial, step, s.ranges, want)
			}
			var total int64
			for i, w := range want {
				if s.ranges[i] != w {
					t.Fatalf("trial %d step %d: ranges %v, want %v", trial, step, s.ranges, want)
				}
				total += w.hi - w.lo
			}
			if s.Total() != total {
				t.Fatalf("trial %d step %d: Total %d, want %d", trial, step, s.Total(), total)
			}
			lo := int64(r.Intn(universe))
			hi := lo + 1 + int64(r.Intn(16))
			covered := hi <= universe
			for i := lo; covered && i < hi; i++ {
				covered = ref[i]
			}
			if s.Covers(lo, hi) != covered {
				t.Fatalf("trial %d step %d: Covers(%d, %d) = %v, want %v", trial, step, lo, hi, !covered, covered)
			}
			next, ok := s.NextAbove(lo)
			var wantNext byteRange
			wantOK := false
			for _, w := range want {
				if w.hi > lo {
					wantNext, wantOK = w, true
					break
				}
			}
			if ok != wantOK || next != wantNext {
				t.Fatalf("trial %d step %d: NextAbove(%d) = %v %v, want %v %v", trial, step, lo, next, ok, wantNext, wantOK)
			}
		}
	}
}

// TestIntervalSetAddInPlace: once the set has grown, inserting and
// trimming ranges reuses its storage.
func TestIntervalSetAddInPlace(t *testing.T) {
	var s intervalSet
	for i := int64(0); i < 16; i++ {
		s.Add(i*100, i*100+10)
	}
	s.Clear()
	avg := testing.AllocsPerRun(100, func() {
		for i := int64(8); i > 0; i-- {
			s.Add(i*100, i*100+10) // each lands before the last: an insert
		}
		s.Add(150, 450) // merges several
		s.TrimBelow(2000)
	})
	if avg != 0 {
		t.Fatalf("Add/TrimBelow on a warmed set allocates %.2f allocs/op", avg)
	}
}

func TestTransferCompletesLossless(t *testing.T) {
	// A clean path (no cross traffic) must deliver exactly and complete.
	cfg := netsim.DefaultPath(radio.NR, true)
	cfg.Cross = netsim.CrossConfig{} // disabled
	size := int64(3 << 20)
	done, ok := RunTransfer(cfg, "cubic", size, 30*time.Second)
	if !ok {
		t.Fatal("transfer did not complete")
	}
	// 3 MB at ≥100 Mb/s plus slow start: well under 2 s.
	if done > 2*time.Second {
		t.Fatalf("3 MB took %v", done)
	}
	// And it cannot beat the bandwidth bound.
	if min := time.Duration(float64(size*8) / cfg.RANRateBps * float64(time.Second)); done < min {
		t.Fatalf("transfer faster than link rate: %v < %v", done, min)
	}
}

func TestTransferAllControllersComplete(t *testing.T) {
	cfg := netsim.DefaultPath(radio.LTE, true)
	cfg.Cross = netsim.CrossConfig{}
	for _, name := range []string{"reno", "cubic", "vegas", "veno", "bbr"} {
		if _, ok := RunTransfer(cfg, name, 1<<20, 30*time.Second); !ok {
			t.Fatalf("%s: 1 MB transfer did not complete", name)
		}
	}
}

func TestSACKRecoveryUnderForcedBurstLoss(t *testing.T) {
	// Drop a contiguous burst mid-flight via a tiny bottleneck buffer and
	// verify the transfer still completes exactly.
	cfg := netsim.DefaultPath(radio.NR, true)
	cfg.Cross = netsim.CrossConfig{}
	cfg.BottleneckBufferBytes = 40_000 // tiny: slow-start overshoot must burst-drop
	sch := des.New()
	path := netsim.NewPath(sch, cfg)
	conn := NewConn(sch, path, "cubic", 4<<20)
	var done time.Duration
	conn.Done = func(at time.Duration) { done = at }
	conn.Start()
	sch.RunUntil(30 * time.Second)
	if done == 0 {
		t.Fatalf("transfer stuck (delivered %d bytes, retx %d, rtos %d)",
			conn.DeliveredBytes, conn.Retransmits, conn.RTOs)
	}
	if conn.Retransmits == 0 {
		t.Fatal("expected burst losses and retransmissions")
	}
}

func baseline(tech radio.Tech) float64 {
	if tech == radio.NR {
		return 820e6
	}
	return 128e6
}

func TestFig7UtilizationShape5G(t *testing.T) {
	cfg := netsim.DefaultPath(radio.NR, true)
	dur := 12 * time.Second
	util := map[string]float64{}
	for _, name := range []string{"reno", "cubic", "vegas", "veno", "bbr"} {
		util[name] = RunBulk(cfg, name, dur).Utilization(baseline(radio.NR))
	}
	// The headline (§4.1): loss/delay-based TCP under 32 % utilization on
	// 5G while BBR stays high.
	for _, name := range []string{"reno", "cubic", "vegas", "veno"} {
		if util[name] >= 0.32 {
			t.Errorf("5G %s utilization = %.1f%%, paper reports <32%%", name, 100*util[name])
		}
		if util[name] < 0.03 {
			t.Errorf("5G %s utilization = %.1f%%, implausibly dead", name, 100*util[name])
		}
	}
	if util["bbr"] < 0.60 {
		t.Errorf("5G bbr utilization = %.1f%%, paper reports 82.5%%", 100*util["bbr"])
	}
	if util["bbr"] < 2.2*util["cubic"] {
		t.Errorf("bbr (%.2f) should dwarf cubic (%.2f) on 5G", util["bbr"], util["cubic"])
	}
	if util["cubic"] < util["vegas"] {
		t.Errorf("cubic (%.2f) should beat vegas (%.2f)", util["cubic"], util["vegas"])
	}
}

func TestFig7UtilizationShape4G(t *testing.T) {
	cfg := netsim.DefaultPath(radio.LTE, true)
	dur := 12 * time.Second
	util := map[string]float64{}
	for _, name := range []string{"reno", "cubic", "bbr"} {
		util[name] = RunBulk(cfg, name, dur).Utilization(baseline(radio.LTE))
	}
	// Paper: 52.9 % / 64.4 % / 79.1 % — loss-based TCP works acceptably on
	// 4G, unlike on 5G.
	if util["reno"] < 0.33 || util["reno"] > 0.75 {
		t.Errorf("4G reno utilization = %.1f%%, paper 52.9%%", 100*util["reno"])
	}
	if util["cubic"] < 0.45 || util["cubic"] > 0.92 {
		t.Errorf("4G cubic utilization = %.1f%%, paper 64.4%%", 100*util["cubic"])
	}
	if util["bbr"] < 0.55 {
		t.Errorf("4G bbr utilization = %.1f%%, paper 79.1%%", 100*util["bbr"])
	}
	if util["cubic"] < util["reno"] {
		t.Errorf("cubic (%.2f) should beat reno (%.2f) on 4G", util["cubic"], util["reno"])
	}
}

func TestLossBasedTCPDoesBetterOn4G(t *testing.T) {
	dur := 12 * time.Second
	nr := RunBulk(netsim.DefaultPath(radio.NR, true), "cubic", dur).Utilization(baseline(radio.NR))
	lte := RunBulk(netsim.DefaultPath(radio.LTE, true), "cubic", dur).Utilization(baseline(radio.LTE))
	if lte < 1.5*nr {
		t.Fatalf("cubic 4G util (%.2f) should far exceed its 5G util (%.2f)", lte, nr)
	}
}

func TestFig8CwndEvolution(t *testing.T) {
	cfg := netsim.DefaultPath(radio.NR, true)
	dur := 15 * time.Second
	bbr := RunBulk(cfg, "bbr", dur)
	cubic := RunBulk(cfg, "cubic", dur)
	// Fig. 8: BBR's cwnd sits high after startup; Cubic's never reaches a
	// reasonable level due to repeated multiplicative decreases.
	tail := func(tr []CwndSample, from time.Duration) float64 {
		var sum float64
		n := 0
		for _, s := range tr {
			if s.At >= from {
				sum += float64(s.Cwnd)
				n++
			}
		}
		return sum / float64(n)
	}
	bbrTail := tail(bbr.CwndTrace, 8*time.Second)
	cubicTail := tail(cubic.CwndTrace, 8*time.Second)
	if bbrTail < 3*cubicTail {
		t.Fatalf("BBR steady cwnd (%.0f KB) should dwarf Cubic's (%.0f KB)", bbrTail/1e3, cubicTail/1e3)
	}
	if cubic.LossEvents < 3 {
		t.Fatalf("Cubic loss events = %d; Fig. 8 shows frequent multiplicative decreases", cubic.LossEvents)
	}
	if cubic.Retransmits == 0 {
		t.Fatal("Cubic shows no retransmissions")
	}
}

func TestBufferSizingRemedy(t *testing.T) {
	// §4.2 remedy: "the buffer size in the wired network part should be
	// increased 2× to accommodate 5G". Doubling the bottleneck buffer must
	// substantially improve Cubic's 5G utilization.
	dur := 12 * time.Second
	small := netsim.DefaultPath(radio.NR, true)
	big := small
	big.BottleneckBufferBytes *= 2
	u1 := RunBulk(small, "cubic", dur).Utilization(baseline(radio.NR))
	u2 := RunBulk(big, "cubic", dur).Utilization(baseline(radio.NR))
	if u2 < 1.25*u1 {
		t.Fatalf("2× buffer: cubic util %.1f%% → %.1f%%, want ≥1.25× improvement", 100*u1, 100*u2)
	}
}

func TestRunTransferTimesOut(t *testing.T) {
	cfg := netsim.DefaultPath(radio.LTE, true)
	cfg.Cross = netsim.CrossConfig{}
	// 100 MB cannot finish in 100 ms.
	if _, ok := RunTransfer(cfg, "cubic", 100<<20, 100*time.Millisecond); ok {
		t.Fatal("impossible transfer reported complete")
	}
}
