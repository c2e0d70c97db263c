package main

import (
	"context"
	"fmt"
	"time"

	"fivegsim"
	"fivegsim/internal/obs"
)

// packetIDs are §4's packet-level experiments: UDP baselines, TCP under all
// five controllers, cwnd, UDP loss, HARQ and bursty loss. They load des,
// netsim, transport, cc and the GC.
var packetIDs = []string{"F7", "F8", "F9", "F10", "F11"}

// fieldIDs are the coverage, hand-off and population experiments. They load
// radio, deploy, geom, coverage, handoff and pop, fire no DES events, and
// each builds its own campus.
var fieldIDs = []string{"T1", "T2", "F2", "F3", "F4", "F5", "F6", "X3", "X11", "X12", "X13", "X14", "X15"}

// setupReps is how often packet and field set up per run; setup_s is the
// median.
const setupReps = 5

// benchConfig is the configuration every workload runs with: quick
// experiments on one worker, so busy threads stay within two cores.
func benchConfig(seed int64) fivegsim.Config {
	return fivegsim.Config{Seed: seed, Quick: true, Workers: 1}
}

// expWorkload is a fixed list of experiments run serially over a seed
// ladder; each experiment run is one unit.
type expWorkload struct {
	ids []string
	// warm are the experiments each set-up runs once as its warm-up. A
	// set-up of a few tenths of a second or more keeps setup_s clear of
	// the host's sub-second bursts (a lone T1, 0.12 s, spread 30 %).
	warm   []string
	ladder func(seed int64) []int64
}

var (
	// The packet experiments keep the calibrated path seed, so their
	// work does not depend on the seed; one seed per round suffices.
	packet = expWorkload{ids: packetIDs, warm: []string{"F11"}, ladder: func(s int64) []int64 { return []int64{s} }}
	field  = expWorkload{ids: fieldIDs, warm: []string{"T1", "F5"}, ladder: func(s int64) []int64 { return []int64{mix(s, 1), mix(s, 2)} }}
)

// setup validates the configuration and experiment list at the API
// boundary and runs the warm-up experiments.
func (w expWorkload) setup(ctx context.Context, seed int64) error {
	cfg := benchConfig(seed)
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := fivegsim.ValidateExperiments(w.ids...); err != nil {
		return err
	}
	res, err := fivegsim.RunExperimentsContext(ctx, cfg, w.warm...)
	if err != nil {
		return err
	}
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("warm-up %s: %w", r.ID, r.Err)
		}
	}
	return nil
}

func (w expWorkload) run(ctx context.Context, seed int64, rounds int) (*tally, error) {
	t := &tally{}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx, seed); err != nil {
			return nil, err
		}
		t.setup = append(t.setup, time.Since(t0).Seconds())
	}
	for r := 0; r < rounds; r++ {
		sp := startSpan()
		res, lat, err := w.round(ctx, seed, nil)
		if err != nil {
			return nil, err
		}
		sp.end(t, len(res))
		t.latency = append(t.latency, lat...)
		for _, x := range res {
			problems, err := checkResult(x)
			t.unit(fmt.Sprintf("%s@%d", x.ID, x.Manifest.Seed), err, problems)
		}
		res = nil
		t.liveHeap = append(t.liveHeap, liveHeap())
	}
	return t, nil
}

// round runs every experiment once per ladder seed, one
// RunExperimentsContext campaign per seed, with telemetry into reg when it
// is non-nil. It returns the results and each campaign's seconds.
func (w expWorkload) round(ctx context.Context, seed int64, reg *obs.Registry) ([]fivegsim.Result, []float64, error) {
	var (
		out     []fivegsim.Result
		latency []float64
	)
	for _, s := range w.ladder(seed) {
		cfg := benchConfig(s)
		cfg.Obs = reg
		t0 := time.Now()
		res, err := fivegsim.RunExperimentsContext(ctx, cfg, w.ids...)
		if err != nil {
			return nil, nil, err
		}
		latency = append(latency, time.Since(t0).Seconds())
		out = append(out, res...)
	}
	return out, latency, nil
}

// mix derives the k-th input seed from the benchmark seed (splitmix64), so
// neighbouring benchmark seeds give unrelated inputs.
func mix(seed int64, k uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + k*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}
