// Package dsrt simulates the Dynamic Soft Real-Time CPU scheduler
// (Chu & Nahrstedt) used by the paper for CPU reservations (§5.5).
//
// Each host has a CPU with unit capacity, shared by tasks under a
// fluid processor-sharing model:
//
//   - A task with a soft-real-time reservation of fraction f receives
//     at least f of the CPU whenever it is runnable ("DSRT works by
//     overriding the Unix scheduler and performing soft real-time
//     scheduling of select processes").
//   - Unreserved runnable tasks share the remaining capacity equally,
//     like a time-sharing Unix scheduler.
//   - The model is work-conserving: capacity left idle by one class is
//     redistributed to the other.
//
// Tasks consume CPU by calling Compute(work): the call blocks the
// simulated process for work/share of virtual time. Applications use
// this for their own computation (e.g. rendering a frame) and the
// globus-io layer uses it for per-byte socket copy costs, which is how
// CPU contention throttles network throughput in Figures 8 and 9.
// A task runs one computation at a time: Start queues work behind the
// task's earlier computations without blocking, and Compute is Start
// plus a wait for that work to finish.
package dsrt

import (
	"fmt"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
)

// CPU is a host processor (or SMP processor set) shared by tasks.
// Capacity is the number of processors; a single task can use at most
// one processor's worth (1.0) — tasks are not internally parallel.
type CPU struct {
	k        *sim.Kernel
	name     string
	capacity float64
	tasks    []*Task

	mComputations *metrics.Counter
	mDeadlineMiss *metrics.Counter
	rec           *metrics.Recorder
}

// NewCPU returns a single-processor CPU named name on kernel k.
func NewCPU(k *sim.Kernel, name string) *CPU {
	return NewSMP(k, name, 1)
}

// NewSMP returns an n-processor host, like the paper's "8-processor
// multiprocessors" (§3). n tasks run at full speed before any sharing
// begins.
func NewSMP(k *sim.Kernel, name string, n int) *CPU {
	if n < 1 {
		panic("dsrt: SMP needs at least one processor")
	}
	reg := k.Metrics()
	return &CPU{
		k: k, name: name, capacity: float64(n),
		mComputations: reg.Counter("dsrt_computations_total",
			"completed Compute calls", "cpu", name),
		mDeadlineMiss: reg.Counter("dsrt_deadline_misses_total",
			"reserved computations that overran their promised rate", "cpu", name),
		rec: reg.Events(),
	}
}

// Name returns the CPU's name.
func (c *CPU) Name() string { return c.name }

// Capacity returns the number of processors.
func (c *CPU) Capacity() float64 { return c.capacity }

// Task is a schedulable entity (one process's CPU principal).
type Task struct {
	cpu      *CPU
	name     string
	reserved float64 // soft-RT fraction; 0 = best effort
	closed   bool

	// Active computation state.
	computing  bool
	remaining  float64 // work-seconds still owed
	rate       float64 // current share of the CPU
	lastUpdate time.Duration
	timer      sim.Timer
	done       *sim.Cond // broadcast as each computation finishes

	// Computations queued behind the active one, in Start order.
	// started and finished count computations, so a Charge is done
	// once finished reaches its number.
	queue             []time.Duration
	started, finished uint64

	// Deadline accounting for the active computation.
	computeStart time.Duration
	computeWork  float64 // work-seconds requested

	usedSeconds float64 // cumulative CPU-seconds consumed
}

// NewTask registers a best-effort task on the CPU.
func (c *CPU) NewTask(name string) *Task {
	t := &Task{cpu: c, name: name, done: sim.NewCond(c.k)}
	c.tasks = append(c.tasks, t)
	return t
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// CPU returns the processor the task is scheduled on.
func (t *Task) CPU() *CPU { return t.cpu }

// Reservation returns the task's current soft-RT fraction.
func (t *Task) Reservation() float64 { return t.reserved }

// SetReservation grants the task a soft-real-time share (0 clears the
// reservation). The sum of reservations across a CPU may not exceed
// 0.95; DSRT keeps headroom so the system stays responsive.
func (t *Task) SetReservation(frac float64) error {
	if t.closed {
		return fmt.Errorf("dsrt: task %q closed", t.name)
	}
	if frac < 0 || frac > 0.95 {
		return fmt.Errorf("dsrt: reservation %.2f out of range [0, 0.95]", frac)
	}
	total := frac
	for _, x := range t.cpu.tasks {
		if x != t && !x.closed {
			total += x.reserved
		}
	}
	if limit := 0.95 * t.cpu.capacity; total > limit {
		return fmt.Errorf("dsrt: admission control: total reservation %.2f would exceed %.2f", total, limit)
	}
	t.reserved = frac
	t.cpu.recompute()
	return nil
}

// Charge is a handle to one computation queued by Start. The zero
// Charge is already complete.
type Charge struct {
	t   *Task
	seq uint64
}

// Pending returns the Cond to wait on while the computation is queued
// or running, and nil once it has finished (or the task was closed).
// A waiter woken by the Cond re-checks Pending.
func (c Charge) Pending() *sim.Cond {
	if c.t == nil || c.seq <= c.t.finished {
		return nil
	}
	return c.t.done
}

// gate adapts Pending to a sim.Gate.
func (c Charge) gate() (*sim.Cond, time.Duration) { return c.Pending(), 0 }

// Start queues work seconds of computation on the task and returns at
// once. Computations run one at a time in Start order; each is
// served at the task's scheduled share from the moment the previous
// one finishes. Non-positive work, or work on a closed task, yields a
// completed Charge.
func (t *Task) Start(work time.Duration) Charge {
	if work <= 0 || t.closed {
		return Charge{}
	}
	t.started++
	if t.computing {
		t.queue = append(t.queue, work)
	} else {
		t.begin(work)
		t.cpu.recompute()
	}
	return Charge{t: t, seq: t.started}
}

// Compute blocks the calling process until the task has received work
// seconds of CPU time at its scheduled share, after any computations
// started before it.
func (t *Task) Compute(ctx *sim.Ctx, work time.Duration) {
	if c := t.Start(work); c.Pending() != nil {
		ctx.Await(c.gate)
	}
}

// begin makes work the active computation.
func (t *Task) begin(work time.Duration) {
	t.computing = true
	t.remaining = work.Seconds()
	t.lastUpdate = t.cpu.k.Now()
	t.computeStart = t.lastUpdate
	t.computeWork = t.remaining
}

// Used returns the task's cumulative CPU-seconds.
func (t *Task) Used() time.Duration {
	t.settle(t.cpu.k.Now())
	return time.Duration(t.usedSeconds * float64(time.Second))
}

// Share returns the task's current scheduled CPU share (0 when idle).
func (t *Task) Share() float64 {
	if !t.computing {
		return 0
	}
	return t.rate
}

// Close deregisters the task. The in-flight computation and any
// queued behind it are abandoned (their waiters are released).
func (t *Task) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.timer.Cancel()
	if t.computing {
		t.computing = false
		t.queue = nil
		t.finished = t.started
		t.done.Broadcast()
	}
	for i, x := range t.cpu.tasks {
		if x == t {
			t.cpu.tasks = append(t.cpu.tasks[:i], t.cpu.tasks[i+1:]...)
			break
		}
	}
	t.cpu.recompute()
}

// settle charges elapsed time against the task's remaining work.
func (t *Task) settle(now time.Duration) {
	if !t.computing || now <= t.lastUpdate {
		return
	}
	dt := (now - t.lastUpdate).Seconds()
	used := dt * t.rate
	if used > t.remaining {
		used = t.remaining
	}
	t.remaining -= used
	t.usedSeconds += used
	t.lastUpdate = now
}

// recompute settles all tasks, reassigns shares, and reschedules
// completion timers. Called on every scheduling event.
func (c *CPU) recompute() {
	now := c.k.Now()
	var runnable []*Task
	for _, t := range c.tasks {
		t.settle(now)
		if t.computing && t.remaining <= 1e-12 {
			// Finished exactly at a boundary; a queued computation
			// takes its place.
			t.finish()
		}
		if t.computing {
			runnable = append(runnable, t)
		}
	}
	totalRes := 0.0
	unreserved := 0
	for _, t := range runnable {
		if t.reserved > 0 {
			totalRes += t.reserved
		} else {
			unreserved++
		}
	}
	leftover := c.capacity - totalRes
	if leftover < 0 {
		leftover = 0
	}
	for _, t := range runnable {
		switch {
		case t.reserved > 0 && unreserved > 0:
			t.rate = t.reserved
		case t.reserved > 0:
			// Work conservation: reserved tasks split idle capacity
			// in proportion to their reservations.
			t.rate = t.reserved + leftover*(t.reserved/totalRes)
		default:
			t.rate = leftover / float64(unreserved)
		}
		// A single task cannot run faster than one processor.
		if t.rate > 1 {
			t.rate = 1
		}
		t.lastUpdate = now
		t.timer.Cancel()
		if t.rate > 0 {
			eta := time.Duration(t.remaining / t.rate * float64(time.Second))
			if eta < time.Nanosecond {
				eta = time.Nanosecond
			}
			tt := t
			t.timer = c.k.After(eta, func() {
				tt.settle(c.k.Now())
				if tt.computing && tt.remaining <= 1e-9 {
					tt.finish()
					c.recompute()
				}
			})
		}
	}
}

// finish completes the task's current computation and begins the
// next queued one, if any; the caller recomputes shares.
func (t *Task) finish() {
	t.computing = false
	t.remaining = 0
	t.timer.Cancel()
	t.finished++
	t.cpu.mComputations.Inc()
	// A reservation of fraction f promises the work completes within
	// work/f wall time; anything beyond (plus 1% scheduling slack) is
	// a soft-deadline miss — DSRT's QoS violation signal.
	if t.reserved > 0 && t.computeWork > 0 {
		elapsed := (t.cpu.k.Now() - t.computeStart).Seconds()
		allowed := t.computeWork / t.reserved * 1.01
		if elapsed > allowed {
			t.cpu.mDeadlineMiss.Inc()
			t.cpu.rec.Emit(metrics.EvDeadlineMiss, t.name,
				int64(elapsed*float64(time.Second)),
				int64(allowed*float64(time.Second)), 0)
		}
	}
	if len(t.queue) > 0 {
		next := t.queue[0]
		t.queue = t.queue[1:]
		t.begin(next)
	}
	t.done.Broadcast()
}

// Load returns the number of currently runnable tasks and the sum of
// active reservations among them.
func (c *CPU) Load() (runnable int, reserved float64) {
	for _, t := range c.tasks {
		if t.computing {
			runnable++
			reserved += t.reserved
		}
	}
	return
}
