package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"mpichgq/perfbench/internal/profile"
	"mpichgq/perfbench/internal/span"
)

// benchmarkSpec is the part of ../BENCHMARK.json the harness must
// agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// fakePasses builds pass results with enough point samples for a
// tail and non-empty traced fields.
func fakePasses(traced bool) []passData {
	var out []passData
	for p := 0; p < 3; p++ {
		d := passData{Wall: 1, Setup: 0.1, AllocBytes: 1 << 20, Mallocs: 100, MaxRSSKiB: 1024}
		for i := 0; i < 10; i++ {
			d.Results = append(d.Results, result{Wall: time.Duration(i+1) * time.Millisecond, Counts: counts{Events: 10}})
		}
		if traced {
			d.LayerNS = map[string]int64{layerProc: 1e6}
			d.SpanSelfNS = map[string]int64{"run": 1e6}
			d.ProfileNS = 1e6
		}
		out = append(out, d)
	}
	return out
}

// checkDeclared checks that the printed metrics and the declared ones
// are the same set, with the same units.
func checkDeclared(t *testing.T, kind string, printed []metric, declared []struct{ Name, Unit string }) {
	t.Helper()
	want := make(map[string]string)
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	seen := make(map[string]bool)
	for _, m := range printed {
		unit, ok := want[m.name]
		switch {
		case !ok:
			t.Errorf("%s metric %q is printed but not declared in BENCHMARK.json", kind, m.name)
		case unit != m.unit:
			t.Errorf("%s metric %q printed in %q, declared in %q", kind, m.name, m.unit, unit)
		}
		seen[m.name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s metric %q is declared in BENCHMARK.json but never printed", kind, name)
		}
	}
}

func TestPrintedMetricsAreDeclared(t *testing.T) {
	spec := loadSpec(t)
	e2e, _ := endToEnd(fakePasses(false))
	checkDeclared(t, "end-to-end", e2e, spec.EndToEnd)
	checkDeclared(t, "per-layer", perLayer(fakePasses(false), fakePasses(true)), spec.PerLayer)

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	have := append([]string(nil), workloadNames...)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, harness has %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, harness has %v", names, have)
		}
	}
}

func TestLayerTableMapsEveryInternalPackage(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, l := range profileLayers {
		known[l] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		l, ok := packageLayers[e.Name()]
		if !ok {
			t.Errorf("internal/%s has no entry in the layer-attribution table", e.Name())
			continue
		}
		if l != "" && !known[l] {
			t.Errorf("internal/%s maps to %q, which is not a profile layer", e.Name(), l)
		}
	}
}

func TestAttribute(t *testing.T) {
	fr := func(fn, file string) profile.Frame { return profile.Frame{Func: fn, File: "/src/" + file} }
	caller := fr("mpichgq/internal/netsim.(*Iface).enqueue", "netsim/link.go")
	cases := []struct {
		stack []profile.Frame
		want  string
	}{
		{[]profile.Frame{fr("mpichgq/internal/sim.(*eventHeap).down", "sim/kernel.go")}, layerSimHeap},
		{[]profile.Frame{fr("mpichgq/internal/sim.(*Kernel).run", "sim/kernel.go")}, layerSimDispatch},
		{[]profile.Frame{fr("mpichgq/internal/sim.(*Proc).park", "sim/proc.go")}, layerProc},
		{[]profile.Frame{fr("runtime.chanrecv", "runtime/chan.go"), fr("mpichgq/internal/sim.(*Proc).park", "sim/proc.go")}, layerProc},
		{[]profile.Frame{fr("runtime.futex", "runtime/sys_linux_amd64.s"), fr("runtime.goexit", "runtime/asm_amd64.s")}, layerProc},
		{[]profile.Frame{fr("runtime.mallocgc", "runtime/malloc.go"), caller}, layerRuntime},
		{[]profile.Frame{fr("runtime.scanobject", "runtime/mgcmark.go"), fr("runtime.gcBgMarkWorker", "runtime/mgc.go")}, layerRuntime},
		{[]profile.Frame{fr("runtime.memmove", "runtime/memmove_amd64.s"), caller}, layerNetsim},
		{[]profile.Frame{fr("sort.insertionSort", "sort/zsortfunc.go"), fr("mpichgq/internal/units.ByteSize.Bits", "units/units.go"), caller}, layerNetsim},
		{[]profile.Frame{fr("mpichgq/internal/netsim.(*fluidIface).sync", "netsim/fluid.go")}, layerFluid},
		{[]profile.Frame{fr("mpichgq/internal/trafficgen.(*ReservationStorm).oneRequest", "trafficgen/storm.go")}, layerCtrl},
		{[]profile.Frame{fr("mpichgq/internal/trafficgen.(*UDPBlaster).Run.func2", "trafficgen/trafficgen.go")}, layerNetsim},
		{[]profile.Frame{fr("mpichgq/internal/experiments.Sweep[go.shape.struct { mpichgq/internal/sim.x int }].func1", "experiments/parallel.go")}, layerBench},
		{[]profile.Frame{fr("main.runPingPong", "perfbench/workload.go")}, layerBench},
		{[]profile.Frame{fr("compress/flate.(*compressor).deflate", "compress/flate/deflate.go"), fr("runtime.goexit", "runtime/asm_amd64.s")}, layerOther},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%s) = %q, want %q", c.stack[0].Func, got, c.want)
		}
	}
}

// TestProfileAttributionSumsToTotal decodes a real CPU profile of
// this process and checks every sample lands in exactly one layer.
func TestProfileAttributionSumsToTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a short workload")
	}
	o := options{workload: "storm", seed: 1, outDir: t.TempDir()}
	w := tinyWorkload(t, o.workload)
	d, err := measureTraced(o, w)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for l, v := range d.LayerNS {
		if v < 0 {
			t.Errorf("layer %s has negative time %d", l, v)
		}
		sum += v
	}
	if sum != d.ProfileNS || sum == 0 {
		t.Fatalf("layers sum to %d ns, profile total %d ns", sum, d.ProfileNS)
	}
	if d.LayerNS[layerCtrl]+d.LayerNS[layerProc] == 0 {
		t.Errorf("storm profile charged nothing to ctrlplane or proc: %v", d.LayerNS)
	}
	if d.SpanSelfNS["run"] <= 0 || d.SpanSelfNS["setup"] <= 0 {
		t.Errorf("span self times missing: %v", d.SpanSelfNS)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 60; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(1000)) // repeats included
		}
		v, pct, ok := tail(xs)
		if ok != (n > tailBeyond) {
			t.Fatalf("n=%d: ok=%v", n, ok)
		}
		if !ok {
			continue
		}
		s := sortedCopy(xs)
		k := int(pct/100*float64(n)+0.5) - 1
		if s[k] != v || n-1-k != tailBeyond {
			t.Fatalf("n=%d: tail %v at p%.2f (rank %d) leaves %d samples beyond, want %d",
				n, v, pct, k+1, n-1-k, tailBeyond)
		}
		// The next higher percentile would leave too few.
		if n-1-(k+1) >= tailBeyond {
			t.Fatalf("n=%d: a higher percentile also has %d samples beyond", n, tailBeyond)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	recs := []span.Record{
		{ID: 1, Name: "point", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "setup", StartNS: 0, EndNS: 10},
		{ID: 3, Parent: 1, Name: "run", StartNS: 10, EndNS: 90},
		{ID: 4, Parent: 3, Name: "reserve", StartNS: 20, EndNS: 30},
		{ID: 5, Parent: 3, Name: "reserve", StartNS: 25, EndNS: 35}, // overlaps its sibling
		{ID: 6, Parent: 1, Name: "readout", StartNS: 90, EndNS: 100},
	}
	got := span.SelfTimes(recs)
	want := map[string]time.Duration{"point": 0, "setup": 10, "run": 65, "reserve": 20, "readout": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestCheckStorm(t *testing.T) {
	ok := map[string]int64{
		"offered": 100, "spec_calls": 100, "calls": 110, "calls_at_stop": 105,
		"ok": 60, "ok_at_stop": 60, "refused": 20, "refused_at_stop": 20,
		"overloads": 15, "overloads_at_stop": 12, "deadlines": 10, "deadlines_at_stop": 8,
		"live_at_stop": 9,
	}
	if why := checkStorm(ok); why != "" {
		t.Fatalf("consistent outcomes rejected: %s", why)
	}
	broken := []func(m map[string]int64){
		func(m map[string]int64) { m["spec_calls"]++ },
		func(m map[string]int64) { m["live_at_stop"] = 4 }, // 5 in flight, 4 processes
		func(m map[string]int64) { m["overloads"] += 10 },  // more outcomes than calls
		func(m map[string]int64) { m["ok"]++ },             // OK moved after stop
		func(m map[string]int64) { m["live_after_drain"] = 1 },
		func(m map[string]int64) { m["queue_after_drain"] = 1 },
		func(m map[string]int64) { m["leaked_ppm"] = 1 },
	}
	for i, mutate := range broken {
		m := make(map[string]int64)
		for k, v := range ok {
			m[k] = v
		}
		mutate(m)
		if checkStorm(m) == "" {
			t.Errorf("broken outcome set %d accepted", i)
		}
	}
}

func TestExpectedPlateau(t *testing.T) {
	// 8 Kb messages, 1 s, 404 round trips: a 2.475 ms round trip plus
	// 2 hops x half of 1000 B at 155 Mb/s (51.6 us) is 2.1% slower.
	got := expectedPlateau(404000, 1000, time.Second, 155e6)
	want := 404000 * 2.4752475e-3 / (2.4752475e-3 + 51.6129e-6)
	if d := got/want - 1; d > 1e-6 || d < -1e-6 {
		t.Fatalf("expectedPlateau = %.1f, want %.1f", got, want)
	}
}

// tinyWorkload halves a workload's simulated time for tests. Much
// shorter ping-pong points stop being steady state: TCP slow start
// then holds the 80 and 120 Kb plateaus below the plateau check's
// bound.
func tinyWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.scale /= 2
	return w
}

// TestSmokeWorkloads runs every workload at half its length and
// requires its output checks to pass.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		w := tinyWorkload(t, name)
		d := measurePass(w, 7, 2, span.NewRecorder(false))
		for _, b := range failures(w, 7, nil, []passData{d}) {
			t.Errorf("%s: %s", name, b)
		}
		if d.Wall <= 0 || d.Setup <= 0 || d.AllocBytes == 0 {
			t.Errorf("%s: pass measured wall %v setup %v alloc %d", name, d.Wall, d.Setup, d.AllocBytes)
		}
	}
}

// TestReferenceCoversEveryPoint checks the stored reference has an
// entry for every point of every workload.
func TestReferenceCoversEveryPoint(t *testing.T) {
	ref, err := parseReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, _ := newWorkload(name)
		for _, p := range w.points {
			if _, ok := ref[name][p.label()]; !ok {
				t.Errorf("reference has no %s point %s", name, p.label())
			}
		}
	}
}
