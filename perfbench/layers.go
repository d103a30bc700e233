package main

import (
	"path"
	"strings"

	"mpichgq/perfbench/internal/profile"
)

// Layer names used for CPU-profile attribution. Each *_ms per-layer
// metric is one of these layers' share of the traced run's samples.
const (
	layerSimHeap     = "sim.heap"     // the kernel's event heap (eventHeap.*)
	layerSimDispatch = "sim.dispatch" // the rest of the kernel: run loop, scheduling, RNG
	layerProc        = "proc"         // sim processes (proc.go, cond.go) + runtime chan/park/schedule
	layerNetsim      = "netsim"       // packet path: links, queues, routing, UDP, packet background
	layerFluid       = "fluid"        // netsim/fluid.go
	layerDiffserv    = "diffserv"
	layerTCP         = "tcpsim"
	layerMPI         = "mpi" // mpi + the QoS agent (core)
	layerGara        = "gara"
	layerCtrl        = "ctrlplane" // control plane, policy broker, reservation storm
	layerRuntime     = "runtime"   // malloc, GC, stack growth
	layerObs         = "obs"       // metrics registry, spans, trace tables
	layerBench       = "bench"     // testbed builders, sweep driver, this benchmark
	layerTools       = "tools"     // static analysis; never linked into the benchmark
	layerOther       = "other"     // everything not attributable to a layer above
)

// packageLayers maps every package under internal/ to its layer; ""
// charges the package's frames to their caller. sim, netsim and
// trafficgen are split further by file in repoLayer.
var packageLayers = map[string]string{
	"analysis":    layerTools,
	"broker":      layerCtrl,
	"core":        layerMPI,
	"ctrlplane":   layerCtrl,
	"diffserv":    layerDiffserv,
	"dsrt":        layerGara,
	"experiments": layerBench,
	"faults":      layerBench,
	"gara":        layerGara,
	"garnet":      layerBench,
	"globusio":    layerMPI,
	"intserv":     layerDiffserv,
	"metrics":     layerObs,
	"mpi":         layerMPI,
	"netsim":      layerNetsim,
	"nws":         layerMPI,
	"sim":         layerSimDispatch,
	"spans":       layerObs,
	"tcpsim":      layerTCP,
	"trace":       layerObs,
	"trafficgen":  layerNetsim,
	"units":       "", // unit conversions are charged to their caller
}

// profileLayers lists every layer a profile can be attributed to, in
// report order.
var profileLayers = []string{
	layerSimHeap, layerSimDispatch, layerProc, layerNetsim, layerFluid,
	layerDiffserv, layerTCP, layerMPI, layerGara, layerCtrl, layerRuntime,
	layerObs, layerBench, layerTools, layerOther,
}

const repoModule = "mpichgq/"

// attribute returns the layer a CPU sample is charged to. It walks the
// stack from the leaf and stops at the first frame that names a layer:
// a repository frame, or a runtime frame of the scheduler (proc) or of
// the allocator and garbage collector (runtime). Other runtime and
// standard-library frames (memmove, map access, sorting, ...) are
// charged to the repository code that called them. A stack with no
// such frame is "other".
func attribute(stack []profile.Frame) string {
	for _, f := range stack {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return layerOther
}

// frameLayer classifies one frame, or returns "" when the frame
// defers to its caller.
func frameLayer(f profile.Frame) string {
	pkg, fn := splitFunc(f.Func)
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, repoModule+"perfbench"):
		return layerBench
	case strings.HasPrefix(pkg, repoModule+"internal/"):
		return repoLayer(strings.TrimPrefix(pkg, repoModule+"internal/"), fn, path.Base(f.File))
	case pkg == "runtime":
		return runtimeLayer(fn, path.Base(f.File))
	}
	return ""
}

// repoLayer maps a frame of internal/<rel> to its layer.
func repoLayer(rel, fn, file string) string {
	top, _, _ := strings.Cut(rel, "/")
	switch top {
	case "sim":
		switch {
		case file == "proc.go" || file == "cond.go":
			return layerProc
		case strings.Contains(fn, "eventHeap"):
			return layerSimHeap
		}
	case "netsim":
		if file == "fluid.go" {
			return layerFluid
		}
	case "trafficgen":
		if file == "storm.go" {
			return layerCtrl
		}
	}
	l, ok := packageLayers[top]
	if !ok {
		return layerOther
	}
	return l
}

// runtimeRoots are the entry trampolines at the base of every
// goroutine and thread stack; they say nothing about the work above.
var runtimeRoots = map[string]bool{
	"goexit": true, "goexit1": true, "main": true, "mstart": true,
	"mstart0": true, "mstart1": true, "systemstack": true, "mcall": true,
	"morestack": true, "rt0_go": true,
}

// runtimeLayer classifies a runtime frame by its source file.
func runtimeLayer(fn, file string) string {
	if runtimeRoots[fn] {
		return ""
	}
	switch file {
	case "proc.go", "chan.go", "select.go", "sema.go", "lock_futex.go",
		"lock_spinbit.go", "os_linux.go", "sys_linux_amd64.s",
		"sys_linux_arm64.s", "asm_amd64.s", "asm_arm64.s", "preempt.go",
		"time.go", "netpoll.go", "netpoll_epoll.go", "runtime2.go":
		return layerProc
	case "malloc.go", "slice.go", "stack.go", "mbarrier.go", "arena.go",
		"memclr_amd64.s", "memclr_arm64.s":
		return layerRuntime
	}
	for _, p := range []string{"mgc", "mheap", "mcache", "mcentral", "mbitmap",
		"mwbbuf", "mpage", "mpallocbits", "mspanset", "mfixalloc", "mfinal",
		"msize", "mem_", "mstats", "mranges"} {
		if strings.HasPrefix(file, p) {
			return layerRuntime
		}
	}
	return ""
}

// splitFunc splits "path/to/pkg.Recv.Method" into the package path
// and the rest. Type arguments of generic functions are dropped first:
// they can hold import paths of their own.
func splitFunc(name string) (pkg, fn string) {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name, ""
	}
	return name[:slash+1+dot], name[slash+1+dot+1:]
}
