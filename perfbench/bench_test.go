package main

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"fivegsim"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fivegsim/internal/des.(*Scheduler).siftDown":    "des",
		"fivegsim/internal/serve.(*Service).Start.func1": "serve",
		"fivegsim.runFig7": "fivegsim",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":           "runtime",
		"runtime/internal/atomic.Load":                           "runtime",
		"net/http.(*conn).serve":                                 "http",
		"encoding/json.(*decodeState).object":                    "json",
		"slices.pdqsortCmpFunc[go.shape.*fivegsim/internal/x.T]": "slices",
		"main.spin": "main",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

var sink float64

// TestFoldProfile folds a real CPU profile: the busy loop's samples land
// under this package's layer, and the folded total matches the profile.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	self, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range self {
		total += s
	}
	layer := layerOf(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	if self[layer] < 0.5*total || total > 0.6 {
		t.Fatalf("folded %v: want most of ≈0.3 s CPU under %s", self, layer)
	}
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage accepted as a profile")
	}
}

func TestPercentileRule(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n, p int
		ok   bool
	}{
		{1, 50, true}, {39, 50, true}, {39, 75, false}, {40, 75, true},
		{99, 90, false}, {100, 90, true}, {199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true}, {0, 50, false},
	} {
		if _, ok := percentile(xs(c.n), c.p); ok != c.ok {
			t.Errorf("percentile(n=%d, p%d) ok = %v, want %v", c.n, c.p, ok, c.ok)
		}
	}
	if v, _ := percentile(xs(5), 50); v != 3 {
		t.Errorf("median of 1..5 = %v", v)
	}
	if v, _ := percentile(xs(201), 95); v != 191 {
		t.Errorf("p95 of 1..201 = %v, want 191", v)
	}
}

// goodF7 has the shape the paper reports.
func goodF7() map[string]float64 {
	v := map[string]float64{"udp5G day": 828e6, "udp4G day": 129e6}
	for _, tech := range []string{"5G", "4G"} {
		for _, cc := range ccNames {
			v[tech+"_"+cc] = 0.3
		}
	}
	v["5G_bbr"], v["5G_cubic"] = 0.71, 0.23
	return v
}

func TestChecksRejectDoctoredResults(t *testing.T) {
	res := func(id string, v map[string]float64) fivegsim.Result {
		return fivegsim.Result{ID: id, Lines: []string{"row"}, Values: v}
	}
	if p, err := checkResult(res("F7", goodF7())); err != nil || len(p) != 0 {
		t.Fatalf("paper-shaped F7 rejected: %v %v", p, err)
	}
	doctored := map[string]func(v map[string]float64){
		"BBR/Cubic swapped":    func(v map[string]float64) { v["5G_bbr"], v["5G_cubic"] = v["5G_cubic"], v["5G_bbr"] },
		"utilisation above 1":  func(v map[string]float64) { v["4G_reno"] = 1.2 },
		"utilisation missing":  func(v map[string]float64) { delete(v, "4G_vegas") },
		"4G baseline above 5G": func(v map[string]float64) { v["udp4G day"] = 900e6 },
	}
	for name, doctor := range doctored {
		v := goodF7()
		doctor(v)
		if p, _ := checkResult(res("F7", v)); len(p) == 0 {
			t.Errorf("F7 with %s passed", name)
		}
	}
	for _, c := range []struct {
		id string
		v  map[string]float64
	}{
		{"F8", map[string]float64{"bbrFinalKB": 400, "cubicFinalKB": 6899, "cubicLossEvents": 10}},
		{"F8", map[string]float64{"bbrFinalKB": 6899, "cubicFinalKB": 400, "cubicLossEvents": 0}},
		{"F9", map[string]float64{"5G@1/5": 0.002, "5G@1/4": 0.001, "5G@1/3": 0.01, "5G@1/2": 0.02, "5G@1": 0.04}},
		{"F9", map[string]float64{"4G@1/5": 0.001, "4G@1": 0.002}},
		{"T1", map[string]float64{"cells5G": 12, "cells4G": 34}},
		{"T2", map[string]float64{"holes5G": 0.01, "holes4G": 0.02}},
		{"F2", map[string]float64{"radius5G": 500, "radius4G": 230}},
		{"F3", map[string]float64{"drop5G": 0.2, "drop4G": 0.5}},
		{"F6", map[string]float64{"latency4G-4G": 30}},
	} {
		if p, _ := checkResult(res(c.id, c.v)); len(p) == 0 {
			t.Errorf("doctored %s %v passed", c.id, c.v)
		}
	}
	if _, err := checkResult(fivegsim.Result{ID: "F7", Err: errors.New("panic")}); err == nil {
		t.Error("errored result not reported as failed")
	}
}

func TestCheckCampaign(t *testing.T) {
	sp := serveSpec(7, 3)
	want := wantUnits(sp)
	if want[0] != (unitKey{Seed: sp.Seeds[0], ID: "F4"}) || want[len(serveIDs)] != (unitKey{Seed: sp.Seeds[1], ID: "F4"}) {
		t.Fatalf("want order %v is not seed-major paper order", want)
	}
	if sp.Experiments[0] == "F4" {
		t.Fatal("spec lists the experiments in paper order; the order check would prove nothing")
	}
	ref := [32]byte{1, 2, 3}
	good := campaignOutcome{streamed: want, state: "done", digest: ref}
	if p := checkCampaign(good, want, ref); len(p) != 0 {
		t.Fatalf("good campaign rejected: %v", p)
	}
	oneByte := good
	oneByte.digest[31] ^= 1
	swapped := good
	swapped.streamed = append([]unitKey(nil), want...)
	swapped.streamed[0], swapped.streamed[1] = swapped.streamed[1], swapped.streamed[0]
	dup := good
	dup.streamed = append(append([]unitKey(nil), want...), want[0])
	failed := good
	failed.failed = 1
	canceled := good
	canceled.state = "canceled"
	for name, o := range map[string]campaignOutcome{
		"report differs": oneByte, "out of order": swapped, "streamed twice": dup,
		"failed unit": failed, "canceled": canceled,
	} {
		if p := checkCampaign(o, want, ref); len(p) == 0 {
			t.Errorf("campaign with %s passed", name)
		}
	}
}

func TestTallyAccounting(t *testing.T) {
	var tl tally
	tl.unit("a", nil, nil)
	tl.unit("b", errors.New("did not run"), nil)
	tl.unit("c", nil, []string{"wrong"})
	tl.unit("d", nil, nil)
	if tl.attempted != 4 || tl.failed != 2 || tl.wrong != 1 {
		t.Fatalf("attempted/failed/wrong = %d/%d/%d, want 4/2/1", tl.attempted, tl.failed, tl.wrong)
	}
	tl.setup, tl.wall, tl.cpu, tl.liveHeap = []float64{1, 3, 2}, []float64{4}, []float64{5}, []float64{2e6}
	tl.spanWall, tl.units, tl.allocBytes, tl.latency = 4, 8, 16e6, []float64{3, 1}
	out := tl.endToEnd()
	if out.Correct || out.Attempted != 4 || out.Failed != 2 {
		t.Fatalf("output %+v", out)
	}
	for name, want := range map[string]float64{
		"setup_s": 2, "wall_s": 4, "cpu_s": 5, "units_per_s": 2, "alloc_mb_per_unit": 2, "live_heap_mb": 2,
		"campaign_latency_p50_s": 2,
	} {
		if got := out.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestRounds(t *testing.T) {
	for name, want := range map[string]int{"packet": 1, "field": 2, "serve": 5} {
		if got := workloads[name].rounds(20); got != want {
			t.Errorf("%s rounds at 20 s = %d, want %d", name, got, want)
		}
	}
	if got := workloads["serve"].rounds(1); got != 3 {
		t.Errorf("serve rounds at 1 s = %d, want the minimum 3", got)
	}
}
