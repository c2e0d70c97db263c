package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"fivegsim"
	"fivegsim/internal/serve"
)

// serveIDs are the cheap analytic experiments each serve campaign runs, in
// paper order (T, then F, then X, each by number). The spec lists them
// rotated, so the stream-order check sees the service reorder them.
var serveIDs = []string{"F4", "F14", "F15", "F18", "F19", "F20", "F21", "F22", "F23", "X4", "X5", "X6"}

const (
	serveClients      = 2             // closed-loop clients, one connection each
	campaignsPerRound = 100           // per client and round: 200 campaigns ≥ the 200 a p95 needs
	serveVariants     = 8             // distinct seed ladders the campaigns cycle through
	warmCampaigns     = serveVariants // per round before the timed span: one per spec, counted in set-up
)

// serveSpec is the campaign spec of variant v: the serve experiments over a
// two-seed ladder derived from the benchmark seed.
func serveSpec(seed int64, v int) serve.Spec {
	rot := v % len(serveIDs)
	ids := append(append([]string(nil), serveIDs[rot:]...), serveIDs[:rot]...)
	return serve.Spec{
		Schema:      serve.SpecSchemaV1,
		Name:        fmt.Sprintf("perfbench-%d", v),
		Experiments: ids,
		Seeds:       []int64{mix(seed, uint64(100+2*v)), mix(seed, uint64(101+2*v))},
		Quick:       true,
	}
}

// wantUnits is the stream order the paper fixes for a spec: seed ladder
// outer, paper order inner.
func wantUnits(sp serve.Spec) []unitKey {
	var out []unitKey
	for _, s := range sp.Seeds {
		for _, id := range serveIDs {
			out = append(out, unitKey{Seed: s, ID: id})
		}
	}
	return out
}

// referenceDigest runs the spec through RunExperimentsContext and hashes
// the concatenated reports — what /report must return byte for byte.
func referenceDigest(ctx context.Context, sp serve.Spec) ([32]byte, error) {
	h := sha256.New()
	for _, s := range sp.Seeds {
		res, err := fivegsim.RunExperimentsContext(ctx, benchConfig(s), sp.Experiments...)
		if err != nil {
			return [32]byte{}, err
		}
		for _, r := range res {
			io.WriteString(h, r.Report())
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// service is one running fgserve instance and its HTTP clients.
type service struct {
	srv    *serve.Server
	stop   context.CancelFunc
	base   string
	client *http.Client
}

// startService starts a service with a one-worker pool on a loopback port.
func startService(ctx context.Context) (*service, error) {
	svc := serve.New(serve.Options{PoolWorkers: 1})
	sctx, stop := context.WithCancel(ctx)
	srv, err := svc.Start(sctx, "127.0.0.1:0")
	if err != nil {
		stop()
		return nil, fmt.Errorf("start service: %w", err)
	}
	return &service{
		srv: srv, stop: stop, base: "http://" + srv.Addr,
		// Exactly one connection per client: an extra, never-used
		// connection would hold the server's shutdown past its grace.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}},
	}, nil
}

// close drops the client's connections, shuts the service down and waits
// for its listener and pool.
func (s *service) close() error {
	s.client.CloseIdleConnections()
	s.stop()
	return s.srv.Wait()
}

// campaignTiming holds one campaign's client-side spans.
type campaignTiming struct {
	latency, submit, stream, report time.Duration
	queueWait                       time.Duration // started_at − submitted_at
}

// streamEvent is the part of an fgserve.event/v1 record the client reads.
type streamEvent struct {
	Kind   string `json:"kind"`
	Seed   int64  `json:"seed"`
	Result *struct {
		ID string `json:"id"`
	} `json:"result"`
	Status *struct {
		State       string    `json:"state"`
		Failed      int       `json:"failed"`
		SubmittedAt time.Time `json:"submitted_at"`
		StartedAt   time.Time `json:"started_at"`
	} `json:"status"`
}

// campaign submits one spec, streams it to the end and fetches its report.
func (s *service) campaign(ctx context.Context, sp serve.Spec, v int) (o campaignOutcome, tm campaignTiming) {
	o.variant = v
	t0 := time.Now()
	body, err := json.Marshal(sp)
	if err != nil {
		o.err = err
		return
	}
	var st serve.Status
	if o.err = s.do(ctx, http.MethodPost, "/campaigns", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	}); o.err != nil {
		return
	}
	t1 := time.Now()
	o.err = s.do(ctx, http.MethodGet, "/campaigns/"+st.ID+"/stream", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var ev streamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return fmt.Errorf("stream event: %w", err)
			}
			switch {
			case ev.Kind == "result" && ev.Result != nil:
				o.streamed = append(o.streamed, unitKey{Seed: ev.Seed, ID: ev.Result.ID})
			case ev.Kind == "status" && ev.Status != nil:
				o.state, o.failed = ev.Status.State, ev.Status.Failed
				tm.queueWait = ev.Status.StartedAt.Sub(ev.Status.SubmittedAt)
			}
		}
		return sc.Err()
	})
	if o.err != nil {
		return
	}
	t2 := time.Now()
	o.err = s.do(ctx, http.MethodGet, "/campaigns/"+st.ID+"/report", nil, http.StatusOK, func(r io.Reader) error {
		h := sha256.New()
		if _, err := io.Copy(h, r); err != nil {
			return err
		}
		copy(o.digest[:], h.Sum(nil))
		return nil
	})
	t3 := time.Now()
	tm = campaignTiming{latency: t3.Sub(t0), submit: t1.Sub(t0), stream: t2.Sub(t1), report: t3.Sub(t2), queueWait: tm.queueWait}
	return
}

// do sends one request and hands the body to read when the status is want.
func (s *service) do(ctx context.Context, method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// serveRound is one round's client-side record.
type serveRound struct {
	setup    time.Duration
	timed    float64 // wall seconds of the clients' span
	outcomes []campaignOutcome
	timings  []campaignTiming
	// liveUp is the live heap with the service still up; liveDown after
	// it is shut down and dropped.
	liveUp, liveDown float64
}

// runServeRound starts a service, warms it with warmCampaigns campaigns,
// runs the closed-loop clients against it, and measures the heap with the
// service up and after it is gone. The timed span is the clients' work alone.
func runServeRound(ctx context.Context, seed int64, t *tally) (serveRound, error) {
	var r serveRound
	goroutines := runtime.NumGoroutine()
	t0 := time.Now()
	s, err := startService(ctx)
	if err != nil {
		return r, err
	}
	for v := 0; v < warmCampaigns; v++ {
		if o, _ := s.campaign(ctx, serveSpec(seed, v), v); o.err != nil || o.state != "done" {
			s.close()
			return r, fmt.Errorf("warm-up campaign: state %q: %v", o.state, o.err)
		}
	}
	r.setup = time.Since(t0)

	sp := startSpan()
	r.outcomes = make([]campaignOutcome, serveClients*campaignsPerRound)
	r.timings = make([]campaignTiming, len(r.outcomes))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < campaignsPerRound; k++ {
				i := c*campaignsPerRound + k
				v := i % serveVariants
				r.outcomes[i], r.timings[i] = s.campaign(ctx, serveSpec(seed, v), v)
			}
		}(c)
	}
	wg.Wait()
	r.timed = sp.end(t, len(r.outcomes))

	r.liveUp = liveHeap()
	if err := s.close(); err != nil {
		return r, fmt.Errorf("service shutdown: %w", err)
	}
	s = nil
	// The server's connection goroutines still hold the service for a
	// moment after Wait returns; measure only once they have ended.
	for end := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	r.liveDown = liveHeap()
	return r, nil
}

func runServe(ctx context.Context, seed int64, rounds int) (*tally, error) {
	t := &tally{}
	refs := map[int][32]byte{}
	for i := 0; i < rounds; i++ {
		r, err := runServeRound(ctx, seed, t)
		if err != nil {
			return nil, err
		}
		t.setup = append(t.setup, r.setup.Seconds())
		t.liveHeap = append(t.liveHeap, r.liveUp)
		for _, tm := range r.timings {
			t.latency = append(t.latency, tm.latency.Seconds())
		}
		// Checked round by round, so that no round's live heap holds an
		// earlier round's outcomes.
		if err := checkCampaigns(ctx, seed, r.outcomes, t, refs); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// checkCampaigns checks every campaign against its spec after the timed
// spans: stream order, terminal status and the reference report. refs
// caches the reference digests by variant.
func checkCampaigns(ctx context.Context, seed int64, outcomes []campaignOutcome, t *tally, refs map[int][32]byte) error {
	for i, o := range outcomes {
		id := fmt.Sprintf("campaign %d (variant %d)", i, o.variant)
		if o.err != nil {
			t.unit(id, o.err, nil)
			continue
		}
		sp := serveSpec(seed, o.variant)
		ref, ok := refs[o.variant]
		if !ok {
			var err error
			if ref, err = referenceDigest(ctx, sp); err != nil {
				return fmt.Errorf("reference run: %w", err)
			}
			refs[o.variant] = ref
		}
		t.unit(id, nil, checkCampaign(o, wantUnits(sp), ref))
	}
	return nil
}
