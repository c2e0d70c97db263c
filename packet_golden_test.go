package fivegsim

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// packetGoldenIDs are the packet-level experiments whose quick reports
// are pinned byte for byte: the buffer estimation (T3), §4's UDP/TCP
// suite (F7–F11) and the fault scenarios (X10), whose latency-burst
// windows end while packets are still in flight.
var packetGoldenIDs = []string{"T3", "F7", "F8", "F9", "F10", "F11", "X10"}

// renderPacketGolden writes every Line and every Value of each result in
// a stable text form. Values use the shortest round-trip float encoding,
// so a one-ulp change shows up as a diff.
func renderPacketGolden(res []Result) string {
	var b strings.Builder
	for _, r := range res {
		fmt.Fprintf(&b, "== %s\n", r.ID)
		if r.Err != nil {
			fmt.Fprintf(&b, "E %v\n", r.Err)
		}
		for _, l := range r.Lines {
			fmt.Fprintf(&b, "L %s\n", l)
		}
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "V %s=%s\n", k, strconv.FormatFloat(r.Values[k], 'g', -1, 64))
		}
	}
	return b.String()
}

// packetGoldenShortIDs is the -short subset: the cheap experiments plus
// X10, whose shrinking latency-burst windows take the lane fallback.
var packetGoldenShortIDs = []string{"T3", "F10", "F11", "X10"}

// goldenSections splits a rendered golden into its per-experiment
// sections (the "== ID" line and the lines up to the next one), keyed by
// ID.
func goldenSections(s string) map[string]string {
	out := map[string]string{}
	id := ""
	for _, l := range strings.SplitAfter(s, "\n") {
		if rest, ok := strings.CutPrefix(l, "== "); ok {
			id = strings.TrimSpace(rest)
		}
		out[id] += l
	}
	return out
}

// TestPacketGolden pins the quick packet-level reports at seed 42 against
// testdata/packet_quick.golden. The scheduler, hop and transport fast
// paths must keep every event's (at, seq) firing order, so any change
// they make to a report is a bug. -short checks a cheaper subset of the
// same file. Regenerate only after an intentional model change:
// go test -run PacketGolden -update .
func TestPacketGolden(t *testing.T) {
	ids := packetGoldenIDs
	if testing.Short() && !*updateGolden {
		ids = packetGoldenShortIDs
	}
	res, err := RunExperiments(Config{Seed: 42, Quick: true, Workers: 1}, ids...)
	if err != nil {
		t.Fatal(err)
	}
	got := renderPacketGolden(res)
	golden := filepath.Join("testdata", "packet_quick.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want, have := goldenSections(string(raw)), goldenSections(got)
	for _, id := range ids {
		if have[id] == want[id] {
			continue
		}
		gl, wl := strings.Split(have[id], "\n"), strings.Split(want[id], "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s report differs from %s:\ngot:  %s\nwant: %s", id, golden, gl[i], wl[i])
			}
		}
		t.Fatalf("%s report differs from %s: %d lines vs %d", id, golden, len(gl), len(wl))
	}
	if !testing.Short() && got != string(raw) {
		t.Fatalf("%s holds sections beyond %v", golden, ids)
	}
}
