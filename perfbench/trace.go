package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fivegsim"
	"fivegsim/internal/coverage"
	"fivegsim/internal/deploy"
	"fivegsim/internal/geom"
	"fivegsim/internal/handoff"
	"fivegsim/internal/netsim"
	"fivegsim/internal/obs"
	"fivegsim/internal/pop"
	"fivegsim/internal/radio"
	"fivegsim/internal/transport"
)

// The traced run. Every workload runs once without and once with
// telemetry: Config.Obs for the experiment workloads, and a CPU profile
// around every traced pass. Per-layer metrics come from the registry
// counters, runtime/metrics deltas and profile self time of the workload
// that loads the layer, and from spans timed around direct calls into the
// layers' public functions on the workloads' own inputs. Every traced
// report must be byte-identical to the untraced one.

// traceRun carries the traced run's output and unit accounting.
type traceRun struct {
	m                        map[string]metric
	t                        *tally
	untracedWall, tracedWall float64
}

func (tr *traceRun) set(name, unit string, v float64) { tr.m[name] = metric{v, unit} }

// selfTimes sets <layer>.self_s for each named layer from a folded profile.
func (tr *traceRun) selfTimes(self map[string]float64, layers ...string) {
	for _, l := range layers {
		tr.set(l+".self_s", "s", self[l])
	}
}

func tracedRun(ctx context.Context, seed int64) (*output, error) {
	tr := &traceRun{m: map[string]metric{}, t: &tally{}}
	if err := tr.packet(ctx, seed); err != nil {
		return nil, fmt.Errorf("packet: %w", err)
	}
	if err := tr.field(ctx, seed); err != nil {
		return nil, fmt.Errorf("field: %w", err)
	}
	if err := tr.serve(ctx, seed); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	tr.set("trace.overhead_ratio", "ratio", tr.tracedWall/tr.untracedWall)
	tr.probes(mix(seed, 1))
	return &output{Correct: tr.t.wrong == 0, Attempted: tr.t.attempted, Failed: tr.t.failed, Metrics: tr.m}, nil
}

// expPass is one experiment workload's untraced and traced pass.
type expPass struct {
	untracedCPU        float64
	self               map[string]float64
	runtime            [4]float64 // deltas of allocBytes, allocObjects, gcCycles, gcCPU
	counters, gaugeMax map[string]float64
}

// experiments runs w untraced and traced, checks the traced reports
// against the untraced ones and the properties, and sets unit.<ID>_s.
func (tr *traceRun) experiments(ctx context.Context, w expWorkload, seed int64) (*expPass, error) {
	if err := w.setup(ctx, seed); err != nil {
		return nil, err
	}
	p := &expPass{}
	t0, cpu0 := time.Now(), cpuSeconds()
	untraced, _, err := w.round(ctx, seed, nil)
	if err != nil {
		return nil, err
	}
	tr.untracedWall += time.Since(t0).Seconds()
	p.untracedCPU = cpuSeconds() - cpu0

	var traced []fivegsim.Result
	reg := obs.NewRegistry()
	rt0 := readRuntime(allocBytes, allocObjects, gcCycles, gcCPU)
	t0 = time.Now()
	p.self, err = cpuProfile(func() (err error) {
		traced, _, err = w.round(ctx, seed, reg)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.tracedWall += time.Since(t0).Seconds()
	rt1 := readRuntime(allocBytes, allocObjects, gcCycles, gcCPU)
	for i := range p.runtime {
		p.runtime[i] = rt1[i] - rt0[i]
	}
	p.counters, p.gaugeMax = snapshotTotals(reg)

	unitWall := map[string][]float64{}
	for i, u := range untraced {
		unitWall[u.ID] = append(unitWall[u.ID], u.Manifest.WallTime.Seconds())
		problems, err := checkResult(u)
		if err == nil && traced[i].Report() != u.Report() {
			problems = append(problems, "report with Config.Obs differs from the report without")
		}
		tr.t.unit(fmt.Sprintf("%s@%d", u.ID, u.Manifest.Seed), err, problems)
	}
	for id, ws := range unitWall {
		tr.set("unit."+id+"_s", "s", median(ws))
	}
	return p, nil
}

// snapshotTotals sums counters over their labels ("netsim.pkt_dropped{hop=…}"
// → "netsim.pkt_dropped") and takes each gauge's maximum.
func snapshotTotals(reg *obs.Registry) (counters, gaugeMax map[string]float64) {
	counters, gaugeMax = map[string]float64{}, map[string]float64{}
	for _, m := range reg.Snapshot() {
		name, _, _ := strings.Cut(m.Name, "{")
		switch m.Kind {
		case "counter":
			counters[name] += m.Value
		case "gauge":
			gaugeMax[name] = max(gaugeMax[name], m.Max)
		}
	}
	return counters, gaugeMax
}

func (tr *traceRun) packet(ctx context.Context, seed int64) error {
	p, err := tr.experiments(ctx, packet, seed)
	if err != nil {
		return err
	}
	tr.set("runtime.alloc_mb", "MB", p.runtime[0]/1e6)
	tr.set("runtime.mallocs", "count", p.runtime[1])
	tr.set("runtime.gc_cycles", "count", p.runtime[2])
	tr.set("runtime.gc_cpu_s", "s", p.runtime[3])
	fired := p.counters["des.events_fired"]
	for _, c := range []string{"des.events_fired", "des.events_scheduled", "des.events_canceled",
		"netsim.pkt_enqueued", "netsim.pkt_delivered", "netsim.pkt_dropped", "netsim.harq_retx",
		"cc.acks", "cc.loss_events", "cc.rto_events"} {
		tr.set(c, "count", p.counters[c])
	}
	tr.set("des.queue_depth_max", "count", p.gaugeMax["des.queue_depth"])
	if fired == 0 {
		return fmt.Errorf("telemetry recorded no DES events")
	}
	tr.set("des.ns_per_event", "ns", p.untracedCPU/fired*1e9)
	tr.selfTimes(p.self, "runtime", "des", "netsim", "transport", "cc")
	return nil
}

func (tr *traceRun) field(ctx context.Context, seed int64) error {
	p, err := tr.experiments(ctx, field, seed)
	if err != nil {
		return err
	}
	for _, c := range []string{"pop.ticks", "pop.ue_attached", "pop.handoffs"} {
		tr.set(c, "count", p.counters[c])
	}
	// coverage is left out: its functions hand every sample's work to
	// deploy and radio, so its leaf time reads 0.
	tr.selfTimes(p.self, "deploy", "radio", "geom", "handoff", "pop")
	return nil
}

func (tr *traceRun) serve(ctx context.Context, seed int64) error {
	var outcomes []campaignOutcome
	untraced, err := runServeRound(ctx, seed, &tally{})
	if err != nil {
		return err
	}
	tr.untracedWall += untraced.timed
	outcomes = append(outcomes, untraced.outcomes...)

	var traced serveRound
	self, err := cpuProfile(func() (err error) {
		traced, err = runServeRound(ctx, seed, &tally{})
		return err
	})
	if err != nil {
		return err
	}
	tr.tracedWall += traced.timed
	outcomes = append(outcomes, traced.outcomes...)
	if err := checkCampaigns(ctx, seed, outcomes, tr.t, map[int][32]byte{}); err != nil {
		return err
	}

	spans := map[string]func(campaignTiming) time.Duration{
		"serve.submit_ms":     func(c campaignTiming) time.Duration { return c.submit },
		"serve.queue_wait_ms": func(c campaignTiming) time.Duration { return c.queueWait },
		"serve.stream_ms":     func(c campaignTiming) time.Duration { return c.stream },
		"serve.report_ms":     func(c campaignTiming) time.Duration { return c.report },
	}
	for name, get := range spans {
		ms := make([]float64, len(traced.timings))
		for i, c := range traced.timings {
			ms[i] = float64(get(c)) / 1e6
		}
		tr.set(name, "ms", median(ms))
	}
	lat := make([]float64, len(untraced.timings))
	for i, c := range untraced.timings {
		lat[i] = c.latency.Seconds()
	}
	p95, ok := percentile(lat, 95)
	if !ok {
		return fmt.Errorf("%d campaigns are too few for a p95", len(lat))
	}
	tr.set("serve.campaign_latency_p95_s", "s", p95)
	// The round's service held its warm-up campaigns too.
	tr.set("serve.retained_kb_per_campaign", "KB",
		(traced.liveUp-traced.liveDown)/float64(len(traced.outcomes)+warmCampaigns)/1e3)
	// web and obs are left out: the serve experiments spend no measurable
	// leaf time in them, so they read 0.
	tr.selfTimes(self, "energy", "video", "wire", "serve", "http", "json", "fivegsim")
	return nil
}

// probes times direct calls into each layer on the workloads' inputs: F7's
// quick UDP and bulk-TCP paths, and a field campus built from the field
// workload's first seed.
func (tr *traceRun) probes(seed int64) {
	timed := func(fn func()) float64 {
		t0 := time.Now()
		fn()
		return time.Since(t0).Seconds()
	}
	const udpDur, bulkDur = 6 * time.Second, 8 * time.Second // F7's quick durations
	tr.set("netsim.udp_baseline_s", "s", timed(func() {
		netsim.UDPBaseline(netsim.DefaultPath(radio.NR, true), udpDur)
	}))
	for _, tech := range []struct {
		t    radio.Tech
		name string
	}{{radio.NR, "nr"}, {radio.LTE, "lte"}} {
		for _, cc := range ccNames {
			a0 := readRuntime(allocBytes)[0]
			s := timed(func() { transport.RunBulk(netsim.DefaultPath(tech.t, true), cc, bulkDur) })
			tr.set("transport.bulk_s."+tech.name+"."+cc, "s", s)
			if tech.t == radio.NR && cc == "bbr" {
				tr.set("transport.bulk_alloc_mb.nr.bbr", "MB", (readRuntime(allocBytes)[0]-a0)/1e6)
			}
		}
	}

	var c *deploy.Campus
	tr.set("deploy.new_s", "s", timed(func() { c = deploy.New(seed) }))
	tr.set("deploy.warm_s", "s", timed(c.WarmFieldMaps))
	const grid = 20 // grid × grid points across the campus
	var dst []radio.Measurement
	w, h := c.Bounds.Max.X-c.Bounds.Min.X, c.Bounds.Max.Y-c.Bounds.Min.Y
	s := timed(func() {
		for i := 0; i < grid; i++ {
			for j := 0; j < grid; j++ {
				pt := geom.Point{X: c.Bounds.Min.X + w*(float64(i)+0.5)/grid, Y: c.Bounds.Min.Y + h*(float64(j)+0.5)/grid}
				dst = c.MeasureAllInto(radio.NR, pt, dst[:0])
				dst = c.MeasureAllInto(radio.LTE, pt, dst[:0])
			}
		}
	})
	tr.set("deploy.measure_all_us", "us", s/(grid*grid)*1e6)

	sv := coverage.NewSurveyor(c, 4630, seed)
	tr.set("coverage.survey_s", "s", timed(func() { sv.Run(1) }))
	hcfg := handoff.DefaultConfig()
	hcfg.Duration = 10 * time.Minute // F5/F6 quick walks
	tr.set("handoff.campaign_s", "s", timed(func() { handoff.RunCampaigns(c, hcfg, seed, 2, 1) }))

	m := pop.DefaultModel()
	m.N, m.Ticks = 2000, 25 // X12's quick size
	p := pop.New(c, m, seed)
	ticks := make([]float64, m.Ticks)
	for i := range ticks {
		ticks[i] = timed(func() { p.Tick(1) }) * 1e3
	}
	p.RestoreLoads()
	tr.set("pop.tick_ms", "ms", median(ticks))
}
