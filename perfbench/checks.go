package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"mpichgq/internal/units"
)

// plateauBound is the validated fluid/packet plateau error bound
// (AblationFluidValidation): a plateau may differ from its expected
// value by this fraction.
const plateauBound = 0.02

// Head-of-line model for the plateau check. Strict priority cannot
// preempt a background packet already on the wire, so each premium
// message waits, on average, half a background packet's serialization
// at every hop it shares with the contention (edge1-core and
// core-edge2). The expected plateau is the no-contention peak slowed
// by that wait once per round trip.
const (
	contendedHops = 2
	bgPacketBytes = 1000 * units.Byte
)

// checkPoints applies the per-point and per-sweep output checks to
// one pass and returns a failure reason per point index ("" = ok).
func checkPoints(w workload, res []result) []string {
	fail := make([]string, len(res))
	for i, r := range res {
		fail[i] = r.Failure
	}
	if w.name == "storm" {
		for i, r := range res {
			if fail[i] == "" {
				fail[i] = checkStorm(r.Out)
			}
		}
		return fail
	}
	quiet := make(map[units.ByteSize]int)
	plateau := make(map[units.ByteSize]int)
	for i, p := range w.points {
		if !p.contended {
			quiet[p.size] = i
		} else if j, ok := plateau[p.size]; !ok || p.rsv > w.points[j].rsv {
			plateau[p.size] = i
		}
	}
	for i, r := range res {
		if fail[i] != "" {
			continue
		}
		o := r.Out
		msg := o["msg_bytes"]
		switch {
		case !inFlight(o["sent1"]-o["recv0"], msg) || !inFlight(o["sent0"]-o["recv1"], msg):
			fail[i] = fmt.Sprintf("mpi bytes: sent %d/%d, received %d/%d (more than one message apart)",
				o["sent0"], o["sent1"], o["recv1"], o["recv0"])
		case float64(o["one_way_bytes"])*8/time.Duration(o["dur_ns"]).Seconds() > float64(o["bottleneck_bps"]):
			fail[i] = fmt.Sprintf("throughput %d B in %v exceeds the %d b/s bottleneck",
				o["one_way_bytes"], time.Duration(o["dur_ns"]), o["bottleneck_bps"])
		}
	}
	for size, qi := range quiet {
		q := res[qi].Out
		if fail[qi] != "" {
			continue
		}
		for i, p := range w.points {
			if p.size == size && p.contended && fail[i] == "" &&
				res[i].Out["one_way_bytes"] > q["one_way_bytes"]+q["msg_bytes"] {
				fail[i] = fmt.Sprintf("contended throughput %d B beats the no-contention peak %d B",
					res[i].Out["one_way_bytes"], q["one_way_bytes"])
			}
		}
		pi := plateau[size]
		if fail[pi] != "" {
			continue
		}
		want := expectedPlateau(q["one_way_bytes"], q["msg_bytes"], time.Duration(q["dur_ns"]), float64(q["bottleneck_bps"]))
		got := float64(res[pi].Out["one_way_bytes"])
		if math.Abs(got-want) > plateauBound*want {
			fail[pi] = fmt.Sprintf("plateau %.0f B is %.2f%% from the expected %.0f B (peak %d B less head-of-line wait), bound %.0f%%",
				got, 100*(got-want)/want, want, q["one_way_bytes"], 100*plateauBound)
		}
	}
	return fail
}

// inFlight reports whether a sent-minus-received byte gap is at most
// one message, the one a ping-pong can have on the wire at cut-off.
func inFlight(gap, msg int64) bool { return gap >= 0 && gap <= msg }

// expectedPlateau is the no-contention peak (bytes in dur, msg bytes
// per round trip) slowed by the mean head-of-line wait per round trip.
func expectedPlateau(peakBytes, msgBytes int64, dur time.Duration, bottleneckBPS float64) float64 {
	if peakBytes <= 0 {
		return 0
	}
	rtt := dur.Seconds() * float64(msgBytes) / float64(peakBytes)
	hol := contendedHops * float64(bgPacketBytes.Bits()) / bottleneckBPS / 2
	return float64(peakBytes) * rtt / (rtt + hol)
}

// checkStorm checks that a storm point's outcomes add up. Every
// Reserve call the storm makes ends in exactly one of OK, refused,
// overloaded or deadline-expired, or is still in flight:
//
//	calls = ok + refused + overloaded + expired + late-ok + in-flight
//
// At the storm's stop time late-ok is 0 (OK only counts answers by
// then), so in-flight must lie between 0 and the number of live storm
// processes, each of which holds at most one call. After the drain
// nothing is in flight, OK is unchanged, and the remainder (answers
// that came after stop) cannot be negative. Every logical request
// builds its spec once, no broker queue or process is left, and no
// reservation still holds capacity.
func checkStorm(o map[string]int64) string {
	atStop := o["ok_at_stop"] + o["refused_at_stop"] + o["overloads_at_stop"] + o["deadlines_at_stop"]
	final := o["ok"] + o["refused"] + o["overloads"] + o["deadlines"]
	inflight := o["calls_at_stop"] - atStop
	switch {
	case o["spec_calls"] != o["offered"]:
		return fmt.Sprintf("offered %d requests but built %d specs", o["offered"], o["spec_calls"])
	case o["ok"]+o["refused"] > o["offered"]:
		return fmt.Sprintf("ok %d + refused %d exceed offered %d", o["ok"], o["refused"], o["offered"])
	case inflight < 0 || inflight > o["live_at_stop"]:
		return fmt.Sprintf("at stop: %d calls, %d outcomes, so %d in flight with %d storm processes live",
			o["calls_at_stop"], atStop, inflight, o["live_at_stop"])
	case o["live_after_drain"] != 0 || o["queue_after_drain"] != 0:
		return fmt.Sprintf("after drain: %d storm processes live, %d requests queued",
			o["live_after_drain"], o["queue_after_drain"])
	case o["ok"] != o["ok_at_stop"]:
		return fmt.Sprintf("ok moved from %d to %d after stop", o["ok_at_stop"], o["ok"])
	case o["calls"] < final:
		return fmt.Sprintf("after drain: %d outcomes for %d calls", final, o["calls"])
	case o["leaked_ppm"] != 0:
		return fmt.Sprintf("%d ppm of EF capacity still booked after every window lapsed", o["leaked_ppm"])
	}
	return ""
}

// defaultSeed is the seed whose outputs are stored in reference.json.
const defaultSeed = 1

// referenceJSON holds, per workload, every point's outputs for
// defaultSeed at the workload's scale. Regenerate it with
// -write-reference after a change that is meant to move outputs.
//
//go:embed reference.json
var referenceJSON []byte

type reference map[string]map[string]map[string]int64 // workload -> point label -> output

func parseReference(data []byte) (reference, error) {
	ref := reference{}
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parse reference: %w", err)
	}
	return ref, nil
}

// checkReference compares one pass's outputs to the stored reference.
func checkReference(ref reference, w workload, res []result) []string {
	fail := make([]string, len(res))
	want := ref[w.name]
	for i, r := range res {
		exp, ok := want[r.Label]
		if !ok {
			fail[i] = "no reference output for " + r.Label
			continue
		}
		if d := diffOutputs(exp, r.Out); d != "" {
			fail[i] = "differs from reference: " + d
		}
	}
	return fail
}

// diffOutputs describes the first differing key of two outputs, or
// returns "".
func diffOutputs(want, got map[string]int64) string {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, wok := want[k]
		g, gok := got[k]
		if wok != gok || w != g {
			return fmt.Sprintf("%s = %d, want %d", k, g, w)
		}
	}
	return ""
}

// writeReference stores the pass's outputs as the workload's
// reference, keeping the other workloads' entries.
func writeReference(path string, w workload, res []result) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read reference: %w", err)
	}
	ref, err := parseReference(data)
	if err != nil {
		return err
	}
	pts := make(map[string]map[string]int64, len(res))
	for _, r := range res {
		pts[r.Label] = r.Out
	}
	ref[w.name] = pts
	data, err = json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
