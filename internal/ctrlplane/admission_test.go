package ctrlplane

import (
	"testing"
	"time"

	"mpichgq/internal/gara"
)

// ladderRig drives one domain server's admission queue directly with
// timed arrivals, so queue depth — and with it the brownout level —
// follows a schedule the test computes by hand.
type ladderRig struct {
	t      *testing.T
	r      *rig
	srv    *Server
	nextID uint64
}

func newLadderRig(t *testing.T, service time.Duration) *ladderRig {
	r := newRig(1, Options{})
	srv := r.plane.Server("dom1")
	srv.EnableAdmission(Admission{
		ServiceTime:  service,
		BrownoutHi:   8,
		BrownoutLo:   2,
		BrownoutHold: time.Second,
	})
	return &ladderRig{t: t, r: r, srv: srv}
}

// arrive dispatches one request of class c at time at and reports,
// once it is answered at the door, whether the brownout ladder shed it.
// A cancel of an unknown reservation is a no-op for the broker, so
// only the admission layer's decisions show.
func (l *ladderRig) arrive(at time.Duration, c gara.Class, wantShed bool) {
	l.r.k.At(at, 0, func() {
		l.nextID++
		shed := false
		l.srv.dispatch(request{
			reqID: l.nextID, method: methodCancel,
			spec: gara.Spec{Class: c}, from: "tenant",
		}, func(resp response) {
			if resp.overloaded {
				if resp.errText != "ctrlplane: admission shed (brownout)" {
					l.t.Errorf("t=%v class %v: shed %q, want brownout", at, c, resp.errText)
				}
				shed = true
			}
		})
		if shed != wantShed {
			l.t.Errorf("t=%v class %v at level %d: shed=%v, want %v",
				at, c, l.srv.BrownoutLevel(), shed, wantShed)
		}
	})
}

// expectLevel checks the brownout level at time at.
func (l *ladderRig) expectLevel(at time.Duration, want int) {
	l.r.k.At(at, 0, func() {
		if got := l.srv.BrownoutLevel(); got != want {
			l.t.Errorf("t=%v: brownout level %d (depth %d), want %d",
				at, got, l.srv.QueueDepth(), want)
		}
	})
}

func (l *ladderRig) shed(reason string) int64 {
	v, _ := l.r.k.Metrics().CounterValue("admission_shed_total", "rm", "dom1", "reason", reason)
	return v
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestBrownoutLadder walks the admission queue's brownout ladder
// through a full episode: a 40-request burst against a 100 ms service
// time holds the depth above BrownoutHi (8) for seconds, so the level
// climbs one step per BrownoutHold (1 s), then steps down once the
// drained depth reaches BrownoutLo (2). Service completions at every
// 100 ms tick re-evaluate the level; probes sit between ticks.
func TestBrownoutLadder(t *testing.T) {
	l := newLadderRig(t, ms(100))
	N, BE, P := gara.ClassNormal, gara.ClassBestEffort, gara.ClassPremium
	for i := 0; i < 40; i++ {
		l.arrive(0, N, false) // one in service, 39 queued
	}
	// Depth is far above Hi, but the hold keeps level 0 for 1 s.
	l.expectLevel(ms(550), 0)
	l.arrive(ms(550), BE, false)
	// The 1.0 s completion sees depth 31 and steps to level 1.
	l.expectLevel(ms(1050), 1)
	l.arrive(ms(1050), BE, true)
	l.arrive(ms(1050), N, false)
	l.arrive(ms(1050), P, false)
	// At most one step per hold: still 1 with depth ≥ Hi.
	l.expectLevel(ms(1550), 1)
	// The 2.0 s completion (depth 23) steps to level 2: premium only.
	l.expectLevel(ms(2050), 2)
	l.arrive(ms(2050), N, true)
	l.arrive(ms(2050), BE, true)
	l.arrive(ms(2050), P, false)
	// 44 admitted; the k-th completion at k×100 ms sees depth 44-k.
	// At 4.1 s the depth is 3 > Lo: no change.
	l.expectLevel(ms(4150), 2)
	// At 4.2 s it is 2 = Lo: one step down.
	l.expectLevel(ms(4250), 1)
	// The queue is idle after 4.4 s, so the next evaluation is the
	// next arrival; once the hold since 4.2 s has passed it steps to 0.
	l.expectLevel(ms(5150), 1)
	l.arrive(ms(5250), P, false)
	l.expectLevel(ms(5260), 0)
	l.arrive(ms(5300), BE, false)
	if err := l.r.k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := l.shed("brownout"); got != 3 {
		t.Fatalf("admission_shed_total{reason=brownout} = %d, want 3", got)
	}
	if got := l.srv.QueueDepth(); got != 0 {
		t.Fatalf("queue depth %d after drain, want 0", got)
	}
}

// TestBrownoutEscalatesAtHiAndCrashResets pins the escalation
// threshold to BrownoutHi exactly and checks that a crash, which wipes
// the queue, also resets the level. A 10 s service time freezes the
// depth at what the arrivals make it.
func TestBrownoutEscalatesAtHiAndCrashResets(t *testing.T) {
	l := newLadderRig(t, 10*time.Second)
	N, BE := gara.ClassNormal, gara.ClassBestEffort
	for i := 0; i < 8; i++ {
		l.arrive(0, N, false) // one in service, depth 7
	}
	// Depth Hi-1 after the hold: no escalation, best-effort admitted.
	l.arrive(ms(1500), BE, false)
	l.expectLevel(ms(1550), 0)
	// Depth Hi: the next arrival escalates and is itself shed.
	l.arrive(ms(1600), BE, true)
	l.expectLevel(ms(1650), 1)
	l.r.k.At(ms(2000), 0, l.srv.Crash)
	l.expectLevel(ms(2050), 0)
	if err := l.r.k.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := l.shed("brownout"); got != 1 {
		t.Fatalf("admission_shed_total{reason=brownout} = %d, want 1", got)
	}
	if got := l.shed("crash"); got != 8 {
		t.Fatalf("admission_shed_total{reason=crash} = %d, want 8", got)
	}
}
