// Command perfbench is fivegsim's end-to-end benchmark. It drives the
// simulator through its public entry points — fivegsim.RunExperimentsContext
// and the fgserve campaign service over HTTP — on three fixed-work
// workloads, checks every output against properties of the paper or of the
// method, and prints one JSON result line:
//
//	perfbench --workload packet|field|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the line carries the end-to-end metrics of the workload.
// With --trace 1 it carries the per-layer metrics of a traced run, which
// runs every workload once without and once with telemetry and times direct
// calls into each layer (see README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one fixed-work input set. roundSeconds is the nominal length
// of one round on a 2-vCPU reference host: --seconds S runs
// max(minRounds, round(S/roundSeconds)) rounds, so the work done per run
// depends on S alone and never on how fast the program is.
type workload struct {
	roundSeconds float64
	minRounds    int
	run          func(ctx context.Context, seed int64, rounds int) (*tally, error)
}

var workloads = map[string]workload{
	"packet": {roundSeconds: 20, minRounds: 1, run: packet.run},
	"field":  {roundSeconds: 10, minRounds: 1, run: field.run},
	"serve":  {roundSeconds: 4, minRounds: 3, run: runServe},
}

func (w workload) rounds(seconds int) int {
	return max(w.minRounds, int(math.Round(float64(seconds)/w.roundSeconds)))
}

func main() {
	name := flag.String("workload", "", "workload to run: packet, field or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "nominal measuring time; sets the fixed number of rounds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of the workload; 1: traced per-layer run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload packet|field|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx := context.Background()
	var (
		out *output
		err error
	)
	if *trace == 1 {
		out, err = tracedRun(ctx, *seed)
	} else {
		var t *tally
		if t, err = w.run(ctx, *seed, w.rounds(*seconds)); err == nil {
			out = t.endToEnd()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.print(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// print writes a readable table to stderr and the JSON line to stdout.
func (o *output) print() error {
	names := make([]string, 0, len(o.Metrics))
	for n, m := range o.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number: %v", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-40s %16.6g %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", o.Correct, o.Attempted, o.Failed)
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
