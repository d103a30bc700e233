package sim

import (
	"fmt"
	"testing"
	"time"
)

// orderOp is one instruction of a decoded FuzzKernelOrder program. It
// runs at setup (trigger -1) or inside the callback of event trigger,
// and either schedules event id at now+dt with priority prio, or
// cancels event target.
type orderOp struct {
	cancel  bool
	trigger int
	id      int
	dt      time.Duration
	prio    int
	target  int
}

// orderProgram is a decoded fuzz input. Events are numbered by the
// schedule instruction that creates them; an instruction can only be
// triggered by, or cancel, an event numbered before it, so every
// program terminates.
type orderProgram struct {
	ops      []orderOp
	events   int
	deadline time.Duration // first RunUntil; the rest is drained by Run
}

var orderPrios = [...]int{PrioNet, PrioNormal, PrioLate}

// decodeOrderProgram reads one deadline byte, then three bytes per
// instruction: kind and priority, time offset or cancel target, and
// trigger. Small offsets make same-instant ties common.
func decodeOrderProgram(data []byte) orderProgram {
	var p orderProgram
	if len(data) == 0 {
		return p
	}
	p.deadline = time.Duration(data[0]%16) * time.Millisecond
	data = data[1:]
	for len(data) >= 3 && len(p.ops) < 256 {
		b0, b1, b2 := data[0], data[1], data[2]
		data = data[3:]
		op := orderOp{trigger: int(b2)%(p.events+1) - 1}
		if b0&1 == 1 {
			if p.events == 0 {
				continue
			}
			op.cancel = true
			op.target = int(b1) % p.events
		} else {
			op.id = p.events
			op.dt = time.Duration(b1%8) * time.Millisecond
			op.prio = orderPrios[int(b0>>1)%len(orderPrios)]
			p.events++
		}
		p.ops = append(p.ops, op)
	}
	return p
}

// runOrderKernel runs prog on the kernel and logs every firing (with
// the Pending view of all events at that moment), every Cancel result,
// and the queue state after the first RunUntil.
func runOrderKernel(prog orderProgram) []string {
	k := New(1)
	timers := make([]Timer, prog.events)
	var log []string
	pending := func() string {
		b := make([]byte, len(timers))
		for i, tm := range timers {
			b[i] = '0'
			if tm.Pending() {
				b[i] = '1'
			}
		}
		return string(b)
	}
	var exec func(trigger int)
	exec = func(trigger int) {
		for _, op := range prog.ops {
			if op.trigger != trigger {
				continue
			}
			if op.cancel {
				log = append(log, fmt.Sprintf("cancel %d %v", op.target, timers[op.target].Cancel()))
				continue
			}
			id := op.id
			timers[id] = k.At(k.Now()+op.dt, op.prio, func() {
				log = append(log, fmt.Sprintf("fire %d at %v %s", id, k.Now(), pending()))
				exec(id)
			})
		}
	}
	exec(-1)
	if err := k.RunUntil(prog.deadline); err != nil {
		panic(err)
	}
	log = append(log, fmt.Sprintf("paused at %v, %d queued %s", k.Now(), k.PendingEvents(), pending()))
	if err := k.Run(); err != nil {
		panic(err)
	}
	return append(log, fmt.Sprintf("drained, %d queued", k.PendingEvents()))
}

// runOrderReference runs prog on a brute-force model: pending events
// in an unsorted slice, each step a linear scan for the least
// (time, priority, scheduling order).
func runOrderReference(prog orderProgram) []string {
	type refEvent struct {
		at   time.Duration
		prio int
		seq  int
		id   int
	}
	const (
		unscheduled = iota
		queued
		done
	)
	state := make([]int, prog.events)
	var queue []refEvent
	var now time.Duration
	seq := 0
	var log []string
	pending := func() string {
		b := make([]byte, len(state))
		for i, s := range state {
			b[i] = '0'
			if s == queued {
				b[i] = '1'
			}
		}
		return string(b)
	}
	exec := func(trigger int) {
		for _, op := range prog.ops {
			if op.trigger != trigger {
				continue
			}
			if !op.cancel {
				seq++
				queue = append(queue, refEvent{at: now + op.dt, prio: op.prio, seq: seq, id: op.id})
				state[op.id] = queued
				continue
			}
			ok := state[op.target] == queued
			if ok {
				for i, e := range queue {
					if e.id == op.target {
						queue = append(queue[:i], queue[i+1:]...)
						break
					}
				}
				state[op.target] = done
			}
			log = append(log, fmt.Sprintf("cancel %d %v", op.target, ok))
		}
	}
	run := func(deadline time.Duration) {
		for len(queue) > 0 {
			min := 0
			for i, e := range queue {
				m := queue[min]
				if e.at < m.at || e.at == m.at && (e.prio < m.prio || e.prio == m.prio && e.seq < m.seq) {
					min = i
				}
			}
			e := queue[min]
			if deadline >= 0 && e.at > deadline {
				return
			}
			queue = append(queue[:min], queue[min+1:]...)
			now = e.at
			state[e.id] = done
			log = append(log, fmt.Sprintf("fire %d at %v %s", e.id, now, pending()))
			exec(e.id)
		}
	}
	exec(-1)
	run(prog.deadline)
	if now < prog.deadline {
		now = prog.deadline
	}
	log = append(log, fmt.Sprintf("paused at %v, %d queued %s", now, len(queue), pending()))
	run(-1)
	return append(log, fmt.Sprintf("drained, %d queued", len(queue)))
}

// FuzzKernelOrder checks the kernel's firing order, Cancel results and
// Timer.Pending against runOrderReference. Callbacks schedule and
// cancel further events, so cancels remove events from the middle of
// the heap while it is being popped, and recycled event structs are
// reused under stale Timer handles.
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeOrderProgram(data)
		got, want := runOrderKernel(prog), runOrderReference(prog)
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("step %d of %d ops: kernel %q, reference %q", i, len(prog.ops), g, w)
			}
		}
	})
}
