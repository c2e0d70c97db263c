package netsim

import (
	"testing"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/radio"
)

func TestSetRANRateTakesEffect(t *testing.T) {
	cfg := DefaultPath(radio.NR, true)
	cfg.Cross = CrossConfig{}
	sch := des.New()
	path := NewPath(sch, cfg)
	var received int64
	path.ToUE = ReceiverFunc(func(p *Packet) { received += int64(p.Len) })
	rate := 900e6
	interval := time.Duration(float64((MSS+HeaderBytes)*8) / rate * 1e9)
	var tick func()
	tick = func() {
		if sch.Now() >= 2*time.Second {
			return
		}
		path.ServerIngress.Receive(&Packet{Len: MSS, Wire: MSS + HeaderBytes})
		sch.After(interval, tick)
	}
	tick()
	// Halfway through, drop the radio to a 4G-class rate.
	sch.After(time.Second, func() { path.SetRANRate(100e6) })
	sch.RunUntil(time.Second)
	firstHalf := received
	sch.RunUntil(2100 * time.Millisecond)
	secondHalf := received - firstHalf
	if secondHalf > firstHalf/3 {
		t.Fatalf("rate change ignored: %d vs %d bytes", firstHalf, secondHalf)
	}
	if path.Cfg.RANRateBps != 100e6 {
		t.Fatalf("config not updated: %v", path.Cfg.RANRateBps)
	}
}

func TestUplinkCarriesAckLoad(t *testing.T) {
	// The uplink hop must sustain the ACK stream of a saturated downlink:
	// ≈880 Mb/s / (2 × 1400 B) × 60 B ≈ 19 Mb/s ≪ 130 Mb/s.
	cfg := DefaultPath(radio.NR, true)
	cfg.Cross = CrossConfig{} // the cross source reschedules forever
	sch := des.New()
	path := NewPath(sch, cfg)
	var acked int64
	path.ToServer = ReceiverFunc(func(p *Packet) { acked++ })
	for i := 0; i < 10000; i++ {
		path.UEIngress.Receive(&Packet{Ack: true, Wire: HeaderBytes})
	}
	sch.RunUntil(2 * time.Second)
	if acked != 10000 {
		t.Fatalf("uplink dropped ACKs: %d/10000", acked)
	}
	if path.UplinkRAN.Dropped != 0 {
		t.Fatalf("uplink drops: %d", path.UplinkRAN.Dropped)
	}
}

func TestLockoutRecoversAfterDrain(t *testing.T) {
	sch := des.New()
	sink := &Sink{}
	hop := NewHop(sch, "h", 8e6, 0, 10_000, sink) // 1 kB/ms drain
	// Overflow the queue.
	for i := 0; i < 20; i++ {
		hop.Receive(&Packet{Wire: 1000})
	}
	if hop.Dropped == 0 {
		t.Fatal("no overflow")
	}
	droppedAtPeak := hop.Dropped
	// Let it drain fully, then offer again: must accept.
	sch.RunUntil(time.Second)
	hop.Receive(&Packet{Wire: 1000})
	sch.Run()
	if hop.Dropped != droppedAtPeak {
		t.Fatal("lockout did not clear after drain")
	}
}

func TestDayNightPRBContention(t *testing.T) {
	// §4.1: 4G gains ≈70 Mb/s at night (more PRBs); 5G barely moves.
	lteDay := DefaultPath(radio.LTE, true).RANRateBps
	lteNight := DefaultPath(radio.LTE, false).RANRateBps
	nrDay := DefaultPath(radio.NR, true).RANRateBps
	nrNight := DefaultPath(radio.NR, false).RANRateBps
	if lteNight-lteDay < 50e6 {
		t.Fatalf("4G day/night delta = %.0f Mb/s, paper ≈70", (lteNight-lteDay)/1e6)
	}
	if nrNight-nrDay > 40e6 {
		t.Fatalf("5G day/night delta = %.0f Mb/s, paper ≈20", (nrNight-nrDay)/1e6)
	}
}

func TestULRatesMatchPaper(t *testing.T) {
	// §4.1: UL baselines 50/100 Mb/s (4G day/night) and 130/130 (5G).
	if got := DefaultPath(radio.LTE, true).ULRateBps; got != 50e6 {
		t.Fatalf("4G day UL = %.0f", got/1e6)
	}
	if got := DefaultPath(radio.LTE, false).ULRateBps; got != 100e6 {
		t.Fatalf("4G night UL = %.0f", got/1e6)
	}
	if got := DefaultPath(radio.NR, true).ULRateBps; got != 130e6 {
		t.Fatalf("5G UL = %.0f", got/1e6)
	}
}

func TestCrossDisabled(t *testing.T) {
	cfg := DefaultPath(radio.NR, true)
	cfg.Cross = CrossConfig{}
	r := RunUDP(cfg, cfg.RANRateBps*0.8, 3*time.Second, false)
	if r.LossRate != 0 {
		t.Fatalf("loss without cross traffic: %.3f%%", 100*r.LossRate)
	}
}

// TestHopExtraPropShrinkMidFlight: a latency-burst window that shrinks
// while packets are in flight lets later packets overtake earlier ones.
// Each packet must still arrive exactly at its serialization end plus the
// propagation delay in force then, and packets arriving at the same
// instant must arrive in the order they were handed to propagation.
func TestHopExtraPropShrinkMidFlight(t *testing.T) {
	sch := des.New()
	type arrival struct {
		seq int64
		at  time.Duration
	}
	var got []arrival
	sink := ReceiverFunc(func(p *Packet) { got = append(got, arrival{p.Seq, sch.Now()}) })
	// 1000-byte packets at 8 Mb/s: one leaves the serializer every 1 ms.
	hop := NewHop(sch, "h", 8e6, time.Millisecond, 1<<20, sink)
	hop.SetExtraProp(20 * time.Millisecond)
	for i := int64(0); i < 10; i++ {
		hop.Receive(&Packet{Seq: i, Wire: 1000})
	}
	// Packets 0–3 leave at 1–4 ms with 21 ms to go (22–25 ms); 4–9 leave
	// at 5–10 ms with 17 ms (22–27 ms): 4–6 overtake into the lane's
	// past, 7 ties the lane's tail and 8–9 extend it.
	sch.At(4500*time.Microsecond, func() { hop.SetExtraProp(16 * time.Millisecond) })
	sch.Run()
	ms := time.Millisecond
	want := []arrival{
		{0, 22 * ms}, {4, 22 * ms}, {1, 23 * ms}, {5, 23 * ms}, {2, 24 * ms},
		{6, 24 * ms}, {3, 25 * ms}, {7, 25 * ms}, {8, 26 * ms}, {9, 27 * ms},
	}
	if len(got) != len(want) {
		t.Fatalf("%d arrivals, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d = %+v, want %+v (all: %+v)", i, got[i], want[i], got)
		}
	}
	if sch.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", sch.Pending())
	}
}
