// Command perfbench is the repository's benchmark. It runs one named
// workload — pingpong-packet, pingpong-fluid or storm — for a seed,
// checks the workload's outputs, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every pass over the workload's points runs in a child process of its
// own. With -trace 0 the metrics are the end-to-end ones (time to
// result, memory), measured with tracing off. With -trace 1 half the
// passes are traced (in-memory spans plus a CPU profile) and the
// metrics are the per-layer breakdown. See README.md for the tables.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"

	"mpichgq/internal/experiments"

	"mpichgq/perfbench/internal/profile"
	"mpichgq/perfbench/internal/span"
)

// minPasses is the fewest passes a run makes. Otherwise -seconds buys
// seconds / passSeconds passes of the workload; the count depends on
// nothing else, so both sides of a comparison measure the same work.
const minPasses = 3

// workers is the sweep width: two workers, or one on a single CPU.
var workers = min(2, runtime.NumCPU())

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	child    string
	pass     int
	outDir   string
	writeRef string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "root seed; every point's kernel seed derives from it")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement length; sets the number of passes")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from untraced and traced passes")
	flag.StringVar(&o.child, "child", "", "internal: run one pass, untraced or traced, and print its raw result")
	flag.IntVar(&o.pass, "pass", 0, "internal: the child's pass number")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench-trace"), "directory for the traced passes' spans and CPU profiles")
	flag.StringVar(&o.writeRef, "write-reference", "", "store one pass's outputs in this reference file (seed must be the default)")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, stdout io.Writer) error {
	w, err := newWorkload(o.workload)
	if err != nil {
		return err
	}
	switch {
	case o.seconds < 1:
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	ref, err := parseReference(referenceJSON)
	if err != nil {
		return err
	}

	switch o.child {
	case "":
	case "untraced":
		return json.NewEncoder(stdout).Encode(measurePass(w, o.seed, workers, span.NewRecorder(false)))
	case "traced":
		d, err := measureTraced(o, w)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(d)
	default:
		return fmt.Errorf("unknown -child %q", o.child)
	}
	if o.writeRef != "" {
		if o.seed != defaultSeed {
			return fmt.Errorf("-write-reference needs the default seed %d", defaultSeed)
		}
		d := []passData{measurePass(w, o.seed, workers, span.NewRecorder(false))}
		if bad := failures(w, o.seed, nil, d); len(bad) > 0 {
			return fmt.Errorf("not writing a reference from a failing run: %s", bad[0])
		}
		return writeReference(o.writeRef, w, d[0].Results)
	}

	printContext(stdout, o)
	// A traced run spends its passes half untraced, half traced, in
	// alternation, so it takes as long as an untraced one and both
	// halves see the same machine conditions.
	passes := max(minPasses, int(math.Round(float64(o.seconds)/w.passSeconds)))
	modes := []string{"untraced"}
	if o.trace == 1 {
		passes = max(2, passes/2)
		modes = append(modes, "traced")
	}
	var un, tr []passData
	for p := 0; p < passes; p++ {
		for _, mode := range modes {
			d, err := runChild(o, mode, p)
			if err != nil {
				return err
			}
			if mode == "traced" {
				tr = append(tr, d)
			} else {
				un = append(un, d)
			}
		}
	}
	attempted, failed := tally(stdout, w, o.seed, ref, un)
	var ms []metric
	if o.trace == 0 {
		var note string
		ms, note = endToEnd(un)
		fmt.Fprintln(stdout, note)
	} else {
		a, f := tally(stdout, w, o.seed, ref, tr)
		attempted, failed = attempted+a, failed+f
		ms = perLayer(un, tr)
	}
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-26s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "%-26s %14.6g %s\n", "fail_frac", float64(failed)/float64(attempted), "1")
	return json.NewEncoder(stdout).Encode(summary(failed == 0, attempted, failed, ms))
}

// printContext prints what the result depends on besides the code's
// speed: toolchain, CPUs, parallelism, seed and commit.
func printContext(w io.Writer, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		commit += dirty
	}
	fmt.Fprintf(w, "context: workload=%s go=%s nproc=%d GOMAXPROCS=%d workers=%d seed=%d seconds=%d commit=%s traced=%d\n",
		o.workload, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, o.seed, o.seconds, commit, o.trace)
}

// passData is one pass over every point of the workload, run in a
// process of its own so every pass starts from the same state: the
// simulator never releases a finished point's kernel (its MPI reader
// processes stay parked), so memory and garbage-collection work grow
// with every point a process runs.
type passData struct {
	Wall       float64 // seconds
	Setup      float64 // seconds, summed over the points' setup spans
	AllocBytes uint64
	Mallocs    uint64
	GCs        uint32
	GCCPUFrac  float64
	MaxRSSKiB  int64
	Results    []result
	// Traced passes only: per span name, the summed self time; per
	// profile layer, the CPU time charged to it.
	SpanSelfNS map[string]int64 `json:",omitempty"`
	LayerNS    map[string]int64 `json:",omitempty"`
	ProfileNS  int64            `json:",omitempty"`
}

// measurePass runs every point of the workload once.
func measurePass(w workload, seed int64, workers int, rec *span.Recorder) passData {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := rec.Begin("workload", -1, nil)
	res := experiments.Sweep(workers, len(w.points), func(i int) result {
		return runPoint(rec, root, w, i, seed)
	})
	wall := root.End()
	runtime.ReadMemStats(&m1)
	d := passData{
		Wall:       wall.Seconds(),
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		GCs:        m1.NumGC - m0.NumGC,
		GCCPUFrac:  m1.GCCPUFraction,
		Results:    res,
	}
	for _, r := range res {
		d.Setup += r.Setup.Seconds()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		d.MaxRSSKiB = ru.Maxrss
	}
	return d
}

// measureTraced runs a traced pass: spans are kept and a CPU profile
// taken; both are written to the output directory and the profile is
// attributed to layers.
func measureTraced(o options, w workload) (passData, error) {
	rec := span.NewRecorder(true)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return passData{}, fmt.Errorf("start CPU profile: %w", err)
	}
	d := measurePass(w, o.seed, workers, rec)
	pprof.StopCPUProfile()

	recs := rec.Records()
	d.SpanSelfNS = make(map[string]int64)
	for name, t := range span.SelfTimes(recs) {
		d.SpanSelfNS[name] = int64(t)
	}
	p, err := profile.Parse(prof.Bytes())
	if err != nil {
		return passData{}, err
	}
	if d.LayerNS, d.ProfileNS, err = attributeProfile(p); err != nil {
		return passData{}, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return passData{}, fmt.Errorf("create %s: %w", o.outDir, err)
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-pass%d", w.name, o.seed, o.pass))
	if err := os.WriteFile(base+"-cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return passData{}, fmt.Errorf("write CPU profile: %w", err)
	}
	f, err := os.Create(base + "-spans.jsonl")
	if err != nil {
		return passData{}, fmt.Errorf("write spans: %w", err)
	}
	if err := span.WriteJSONL(f, recs); err != nil {
		f.Close()
		return passData{}, err
	}
	return d, f.Close()
}

// attributeProfile charges each CPU sample to a layer and returns the
// per-layer and total CPU nanoseconds.
func attributeProfile(p *profile.Profile) (map[string]int64, int64, error) {
	vi := p.ValueIndex("cpu/nanoseconds")
	if vi < 0 {
		return nil, 0, errors.New("profile has no cpu/nanoseconds samples")
	}
	layers := make(map[string]int64)
	var total int64
	for _, s := range p.Samples {
		if vi >= len(s.Values) {
			continue
		}
		layers[attribute(s.Stack)] += s.Values[vi]
		total += s.Values[vi]
	}
	return layers, total, nil
}

// runChild re-executes this binary to run one pass in a fresh process
// and decodes its result.
func runChild(o options, mode string, pass int) (passData, error) {
	var d passData
	exe, err := os.Executable()
	if err != nil {
		return d, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-out", o.outDir,
		"-child", mode, "-pass", fmt.Sprint(pass))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return d, fmt.Errorf("%s pass %d: %w", mode, pass, err)
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s pass %d: decode result: %w", mode, pass, err)
	}
	return d, nil
}

// failures lists, per failed point of every pass, why it failed: a
// panic or kernel error, a failed output check, a difference from the
// first pass of the same seed, or (for the default seed) from the
// stored reference.
func failures(w workload, seed int64, ref reference, passes []passData) []string {
	var bad []string
	for p, pd := range passes {
		fail := checkPoints(w, pd.Results)
		var refFail []string
		if ref != nil && seed == defaultSeed {
			refFail = checkReference(ref, w, pd.Results)
		}
		for i, r := range pd.Results {
			why := fail[i]
			if why == "" && p > 0 {
				if diff := diffOutputs(passes[0].Results[i].Out, r.Out); diff != "" {
					why = "not deterministic: differs from the first pass: " + diff
				}
			}
			if why == "" && refFail != nil {
				why = refFail[i]
			}
			if why != "" {
				bad = append(bad, fmt.Sprintf("pass %d point %s: %s", p, r.Label, why))
			}
		}
	}
	return bad
}

// tally prints every failure and returns points attempted and failed.
func tally(out io.Writer, w workload, seed int64, ref reference, passes []passData) (attempted, failed int) {
	bad := failures(w, seed, ref, passes)
	for _, b := range bad {
		fmt.Fprintln(out, "FAIL", b)
	}
	return len(passes) * len(w.points), len(bad)
}

type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd computes the user-facing metrics of an untraced run, and a
// note on the point-time sample count.
func endToEnd(passes []passData) ([]metric, string) {
	var walls, setups, allocs, rss, points, pointMedians []float64
	perPoint := make([][]float64, len(passes[0].Results))
	for _, p := range passes {
		walls = append(walls, p.Wall)
		setups = append(setups, p.Setup)
		allocs = append(allocs, float64(p.AllocBytes)/(1<<20))
		rss = append(rss, float64(p.MaxRSSKiB)/1024)
		for i, r := range p.Results {
			points = append(points, r.Wall.Seconds()*1000)
			perPoint[i] = append(perPoint[i], r.Wall.Seconds()*1000)
		}
	}
	// The points of a workload differ in cost by orders of magnitude,
	// so the pooled median would fall on the edge between two points'
	// samples. The median point is taken over each point's median.
	for _, xs := range perPoint {
		pointMedians = append(pointMedians, median(xs))
	}
	ms := []metric{
		{"setup_s", median(setups), "s"},
		{"wall_s", median(walls), "s"},
		{"point_p50_ms", median(pointMedians), "ms"},
	}
	note := fmt.Sprintf("point_tail_ms omitted: %d point samples leave no percentile with %d beyond it", len(points), tailBeyond)
	if v, pct, ok := tail(points); ok {
		ms = append(ms, metric{"point_tail_ms", v, "ms"})
		note = fmt.Sprintf("point_p50_ms is over %d points' medians; point_tail_ms is p%.1f of %d point samples", len(pointMedians), pct, len(points))
	}
	return append(ms,
		metric{"alloc_mb", median(allocs), "MiB"},
		metric{"max_rss_mb", median(rss), "MiB"},
	), note
}

// perLayer computes the per-layer metrics: counts from the first
// untraced pass (every pass runs the same simulations), times per pass
// from the traced passes' spans and profiles.
func perLayer(un, tr []passData) []metric {
	var c counts
	for _, r := range un[0].Results {
		c.add(r.Counts)
	}
	var walls, trWalls, gcs, gcFrac, mallocs []float64
	for _, p := range un {
		walls = append(walls, p.Wall)
		gcs = append(gcs, float64(p.GCs))
		gcFrac = append(gcFrac, p.GCCPUFrac)
		mallocs = append(mallocs, float64(p.Mallocs))
	}
	layerNS := make(map[string]int64)
	spanNS := make(map[string]int64)
	var profNS int64
	for _, p := range tr {
		trWalls = append(trWalls, p.Wall)
		for l, v := range p.LayerNS {
			layerNS[l] += v
		}
		for n, v := range p.SpanSelfNS {
			spanNS[n] += v
		}
		profNS += p.ProfileNS
	}
	trPasses := float64(len(tr))
	layerMS := func(l string) float64 { return float64(layerNS[l]) / 1e6 / trPasses }
	spanMS := func(n string) float64 { return float64(spanNS[n]) / 1e6 / trPasses }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	profMS := float64(profNS) / 1e6 / trPasses
	return []metric{
		{"sim.events", float64(c.Events), "count"},
		{"sim.events_per_s", ratio(float64(c.Events), median(walls)), "1/s"},
		{"sim.heap_ms", layerMS(layerSimHeap), "ms"},
		{"sim.dispatch_ms", layerMS(layerSimDispatch), "ms"},
		{"proc.live_max", float64(c.LiveMax), "count"},
		{"proc.switch_ms", layerMS(layerProc), "ms"},
		{"proc.switch_frac", ratio(layerMS(layerProc), profMS), "1"},
		{"netsim.tx_packets", float64(c.TxPackets), "count"},
		{"netsim.drops", float64(c.NetDrops), "count"},
		{"netsim.self_ms", layerMS(layerNetsim), "ms"},
		{"netsim.ns_per_packet", ratio(layerMS(layerNetsim)*1e6, float64(c.TxPackets)), "ns"},
		{"fluid.self_ms", layerMS(layerFluid), "ms"},
		{"fluid.loss_bytes", float64(c.FluidLoss), "B"},
		{"diffserv.conform", float64(c.Conform), "count"},
		{"diffserv.exceed", float64(c.Exceed), "count"},
		{"diffserv.drops", float64(c.PoliceDrops), "count"},
		{"diffserv.self_ms", layerMS(layerDiffserv), "ms"},
		{"tcpsim.segments", float64(c.Segments), "count"},
		{"tcpsim.retransmits", float64(c.Retransmits), "count"},
		{"tcpsim.timeouts", float64(c.Timeouts), "count"},
		{"tcpsim.useful_ratio", ratio(float64(c.MPIBytes), float64(c.HostTxBytes)), "1"},
		{"tcpsim.self_ms", layerMS(layerTCP), "ms"},
		{"mpi.messages", float64(c.MPIMessages), "count"},
		{"mpi.bytes", float64(c.MPIBytes), "B"},
		{"mpi.self_ms", layerMS(layerMPI), "ms"},
		{"span.reserve_ms", spanMS("reserve"), "ms"},
		{"gara.reservations", float64(c.Reservations), "count"},
		{"gara.rejects", float64(c.Rejects), "count"},
		{"gara.self_ms", layerMS(layerGara), "ms"},
		{"ctrlplane.rpc_attempts", float64(c.RPCAttempts), "count"},
		{"ctrlplane.retries", float64(c.RPCRetries), "count"},
		{"ctrlplane.sheds", float64(c.Sheds), "count"},
		{"ctrlplane.admit_ratio", ratio(float64(c.StormOK), float64(c.StormOffered)), "1"},
		{"ctrlplane.self_ms", layerMS(layerCtrl), "ms"},
		{"runtime.gc_cycles", median(gcs), "count"},
		{"runtime.gc_cpu_frac", median(gcFrac), "1"},
		{"runtime.alloc_per_event", ratio(median(mallocs), float64(c.Events)), "count"},
		{"runtime.self_ms", layerMS(layerRuntime), "ms"},
		{"obs.self_ms", layerMS(layerObs), "ms"},
		{"bench.self_ms", layerMS(layerBench), "ms"},
		{"other.self_ms", layerMS(layerOther), "ms"},
		{"other.frac", ratio(layerMS(layerOther), profMS), "1"},
		{"profile.total_ms", profMS, "ms"},
		{"span.setup_ms", spanMS("setup"), "ms"},
		{"span.run_ms", spanMS("run"), "ms"},
		{"span.readout_ms", spanMS("readout"), "ms"},
		{"trace.overhead_frac", ratio(median(trWalls), median(walls)) - 1, "1"},
	}
}

// summary is the final JSON line.
func summary(ok bool, attempted, failed int, ms []metric) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(ms))
	for _, m := range ms {
		vals[m.name] = value{m.value, m.unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, attempted, failed, vals}
}
