package main

import (
	"fmt"

	"fivegsim"
)

// The output checks. Each states a property of the paper or of the method,
// never a stored copy of an earlier run's output, so a change that keeps the
// reproduced paper passes and one that breaks it fails.

// ccNames are the congestion controllers F7 runs on each technology.
var ccNames = []string{"reno", "cubic", "vegas", "veno", "bbr"}

// resultChecks maps an experiment ID to its property check; every check
// returns the list of properties the result violates.
var resultChecks = map[string]func(v map[string]float64) []string{
	// §4.1: UDP baselines and TCP utilisation.
	"F7": func(v map[string]float64) []string {
		var bad []string
		if !(v["udp5G day"] > v["udp4G day"]) {
			bad = append(bad, fmt.Sprintf("5G day UDP baseline %.4g not above 4G day %.4g", v["udp5G day"], v["udp4G day"]))
		}
		for _, tech := range []string{"5G", "4G"} {
			for _, cc := range ccNames {
				u, ok := v[tech+"_"+cc]
				if !ok || !(u > 0 && u <= 1) {
					bad = append(bad, fmt.Sprintf("%s %s utilisation %.4g outside (0, 1]", tech, cc, u))
				}
			}
		}
		if !(v["5G_bbr"] > v["5G_cubic"]) {
			bad = append(bad, fmt.Sprintf("5G BBR utilisation %.4g not above Cubic %.4g", v["5G_bbr"], v["5G_cubic"]))
		}
		return bad
	},
	// Fig. 8: BBR keeps a larger window; Cubic backs off on loss.
	"F8": func(v map[string]float64) []string {
		var bad []string
		if !(v["bbrFinalKB"] > v["cubicFinalKB"]) {
			bad = append(bad, fmt.Sprintf("BBR final cwnd %.4g KB not above Cubic %.4g KB", v["bbrFinalKB"], v["cubicFinalKB"]))
		}
		if !(v["cubicLossEvents"] >= 1) {
			bad = append(bad, "Cubic saw no loss event")
		}
		return bad
	},
	// Fig. 9: 5G loss does not fall as the offered load rises.
	"F9": func(v map[string]float64) []string {
		var bad []string
		loads := []string{"1/5", "1/4", "1/3", "1/2", "1"}
		for i := 1; i < len(loads); i++ {
			lo, okLo := v["5G@"+loads[i-1]]
			hi, okHi := v["5G@"+loads[i]]
			if !okLo || !okHi {
				bad = append(bad, fmt.Sprintf("5G loss at %s or %s load missing", loads[i-1], loads[i]))
			} else if hi < lo {
				bad = append(bad, fmt.Sprintf("5G loss falls from %.4g at %s load to %.4g at %s", lo, loads[i-1], hi, loads[i]))
			}
		}
		return bad
	},
	// Fig. 10: HARQ needs at most two retransmissions on 5G, four on 4G.
	"F10": func(v map[string]float64) []string {
		if !(v["max5G"] >= 1 && v["max5G"] <= 2 && v["max4G"] <= 4) {
			return []string{fmt.Sprintf("HARQ depth 5G %.0f / 4G %.0f outside the paper's ≤2 / ≤4", v["max5G"], v["max4G"])}
		}
		return nil
	},
	// Fig. 11: 5G loss is bursty — most loss runs are bursts.
	"F11": func(v map[string]float64) []string {
		if !(v["burstFrac"] > 0.5 && v["burstFrac"] <= 1) {
			return []string{fmt.Sprintf("burst fraction %.4g: loss not bursty", v["burstFrac"])}
		}
		return nil
	},
	// Table 1: the campus has the paper's 13 gNB and 34 eNB cells.
	"T1": func(v map[string]float64) []string {
		if v["cells5G"] != 13 || v["cells4G"] != 34 {
			return []string{fmt.Sprintf("cells 5G %.0f / 4G %.0f, paper 13 / 34", v["cells5G"], v["cells4G"])}
		}
		return nil
	},
	// Table 2: 5G leaves more coverage holes than 4G.
	"T2": func(v map[string]float64) []string {
		if !(v["holes5G"] > v["holes4G"]) {
			return []string{fmt.Sprintf("5G holes %.4g not above 4G holes %.4g", v["holes5G"], v["holes4G"])}
		}
		return nil
	},
	// Fig. 2: a 4G cell reaches further than a 5G cell.
	"F2": func(v map[string]float64) []string {
		if !(v["radius4G"] > v["radius5G"]) {
			return []string{fmt.Sprintf("4G radius %.4g m not above 5G radius %.4g m", v["radius4G"], v["radius5G"])}
		}
		return nil
	},
	// Fig. 3: walls cost 5G more bit rate than 4G.
	"F3": func(v map[string]float64) []string {
		if !(v["drop5G"] > v["drop4G"]) {
			return []string{fmt.Sprintf("5G indoor drop %.4g not above 4G drop %.4g", v["drop5G"], v["drop4G"])}
		}
		return nil
	},
	// Fig. 6: the NSA roll-back makes 5G→5G hand-offs slower than 4G→4G.
	"F6": func(v map[string]float64) []string {
		nr, ok5 := v["latency5G-5G"]
		lte, ok4 := v["latency4G-4G"]
		if !ok5 || !ok4 || !(nr > lte) {
			return []string{fmt.Sprintf("5G→5G hand-off latency %.4g ms not above 4G→4G %.4g ms", nr, lte)}
		}
		return nil
	},
}

// checkResult returns which properties the result's output violates, or
// why the result did not complete.
func checkResult(r fivegsim.Result) ([]string, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	if len(r.Lines) == 0 {
		return []string{"empty report"}, nil
	}
	if c := resultChecks[r.ID]; c != nil {
		return c(r.Values), nil
	}
	return nil, nil
}

// unitKey names one streamed result.
type unitKey struct {
	Seed int64
	ID   string
}

// campaignOutcome is what a serve client saw for one campaign.
type campaignOutcome struct {
	variant  int
	err      error     // transport or protocol failure
	streamed []unitKey // result events in stream order
	state    string    // terminal status state
	failed   int       // terminal status failed count
	digest   [32]byte  // sha256 of the GET /report body
}

// checkCampaign compares one campaign with its spec's expected unit order
// and with the reference report computed through RunExperimentsContext.
func checkCampaign(o campaignOutcome, want []unitKey, refDigest [32]byte) []string {
	var bad []string
	if o.state != "done" || o.failed != 0 {
		bad = append(bad, fmt.Sprintf("final status %q with %d failed units, want done with 0", o.state, o.failed))
	}
	if len(o.streamed) != len(want) {
		bad = append(bad, fmt.Sprintf("streamed %d results, want %d", len(o.streamed), len(want)))
	} else {
		for i := range want {
			if o.streamed[i] != want[i] {
				bad = append(bad, fmt.Sprintf("result %d streamed as %v, want %v in paper order", i, o.streamed[i], want[i]))
				break
			}
		}
	}
	if o.digest != refDigest {
		bad = append(bad, "report differs from RunExperimentsContext on the same spec")
	}
	return bad
}
