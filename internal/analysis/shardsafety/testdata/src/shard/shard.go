// Package shard is the seeded-violation fixture for the shardsafety
// analyzer. Kernel, Packet, and Network mirror internal/sim and
// internal/netsim structurally (a Kernel type, pooled *Packet values,
// a struct hanging off a *Kernel), which is how the analyzer
// recognises kernel-owned values.
package shard

import "time"

type Kernel struct {
	now time.Duration
}

func (k *Kernel) Now() time.Duration { return k.now }

type Packet struct {
	size int
	next *Packet
}

// Network hangs off a kernel, so it is kernel-owned too.
type Network struct {
	k    *Kernel
	free []*Packet
}

// bridge reaches into two kernels at once: each kernel's structures
// belong to that kernel alone.
type bridge struct { // want `struct bridge owns 2 kernels; kernel-owned state must belong to one kernel`
	left  *Kernel
	right *Kernel
}

// --- package-level state ---

var pending []*Packet
var counter int

// init runs before any kernel exists: exempt.
func init() { counter = 1 }

func bumpCounter() {
	counter++ // want `package-level state counter is written outside init`
}

func stashGlobal(p *Packet) {
	pending = append(pending, p) // want `package-level state pending is written outside init` `kernel-owned p \(\*Packet\) is stored into package-level state`
}

var defaultKernel *Kernel

func installDefault(k *Kernel) {
	defaultKernel = k // want `package-level state defaultKernel is written outside init` `kernel-owned k \(\*Kernel\) is stored into package-level state`
}

// --- goroutines ---

func spawnWithPacket(n *Network, p *Packet) {
	go deliverAsync(n, p) // want `kernel-owned n \(\*Network\) escapes into a goroutine` `kernel-owned p \(\*Packet\) escapes into a goroutine`
}

func deliverAsync(n *Network, p *Packet) {
	n.free = append(n.free, p)
}

func spawnClosure(k *Kernel) {
	go func() { // want `kernel-owned k \(\*Kernel\) escapes into a goroutine`
		_ = k.Now()
	}()
}

func spawnMethod(k *Kernel) {
	go k.Now() // want `kernel-owned k \(\*Kernel\) escapes into a goroutine`
}

// Plain values are not kernel-owned: no finding for the int.
func spawnPlain(ch chan int, v int) {
	go func() { ch <- v }()
}

// --- interprocedural escapes through helpers ---

// consume stores its packet into package state two hops down.
func consume(p *Packet) { stashGlobal(p) } // want `kernel-owned p \(\*Packet\) reaches package-level state via stashGlobal`

func helperStoresGlobal(p *Packet) {
	consume(p) // want `kernel-owned p \(\*Packet\) reaches package-level state via consume`
}

func spawnHelper(p *Packet) {
	go func() { _ = p.size }() // want `kernel-owned p \(\*Packet\) escapes into a goroutine`
}

func helperGoCaptures(p *Packet) {
	spawnHelper(p) // want `kernel-owned p \(\*Packet\) escapes into a goroutine via spawnHelper`
}

// inspect only reads: no escape, no finding.
func inspect(p *Packet) int { return p.size }

func helperReadsOnly(p *Packet) {
	_ = inspect(p)
}

// --- correct code ---

// Kernel-owned state hanging off the kernel's own structures is the
// sanctioned shape.
func enqueue(n *Network, p *Packet) {
	n.free = append(n.free, p)
}

func localState(k *Kernel) time.Duration {
	sum := k.Now()
	sum += k.Now()
	return sum
}

func suppressedWrite() {
	//lint:ignore shardsafety fixture proving suppression works for this analyzer
	counter = 7
}
