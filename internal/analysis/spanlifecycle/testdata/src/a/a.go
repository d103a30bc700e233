// Package a is the seeded-violation fixture for the spanlifecycle
// analyzer. The tracer types mirror internal/spans structurally (a
// Begin method returning *Span, fluent setters, End/EndStatus), which
// is how the analyzer recognises the lifecycle.
package a

type Status uint8

type Span struct {
	open bool
}

func (s *Span) Int(key string, v int64) *Span { return s }
func (s *Span) Str(key, val string) *Span     { return s }
func (s *Span) SetStatus(st Status) *Span     { return s }
func (s *Span) End()                          {}
func (s *Span) EndStatus(st Status)           {}
func (s *Span) SpanID() uint64                { return 0 }

type Tracer struct{}

func (t *Tracer) Begin(trace uint64, parent uint64, name, subject string) *Span {
	return &Span{open: true}
}

type holder struct {
	sp *Span
}

// consume stores the span for a later phase to close — a real
// hand-off under the interprocedural engine, like the multi-phase
// lifecycles in gara/tcpsim.
var parked *Span

func consume(sp *Span) { parked = sp }

// --- leaks ---

func straightLineLeak(tr *Tracer) {
	sp := tr.Begin(1, 0, "op", "subj") // want `Begin result may leak`
	sp.Int("k", 1)
}

func earlyReturnLeak(tr *Tracer, fail bool) {
	sp := tr.Begin(1, 0, "op", "subj") // want `Begin result may leak: this path \(line 47\)`
	if fail {
		return // leaks sp
	}
	sp.End()
}

func branchLeak(tr *Tracer, ok bool) {
	sp := tr.Begin(1, 0, "op", "subj") // want `Begin result may leak`
	if ok {
		sp.EndStatus(Status(1))
	}
	// fallthrough path never closes sp
}

func chainedAllocLeak(tr *Tracer) {
	sp := tr.Begin(1, 0, "op", "subj").Int("k", 1) // want `Begin result may leak`
	_ = sp.SpanID()
}

func loopScopeLeak(tr *Tracer, n int, skip []bool) {
	for i := 0; i < n; i++ {
		sp := tr.Begin(1, 0, "op", "subj") // want `Begin result may leak`
		if skip[i] {
			continue // leaks this iteration's span
		}
		sp.End()
	}
}

func reassignLeak(tr *Tracer) {
	sp := tr.Begin(1, 0, "op", "subj") // want `Begin result may leak: sp is reassigned`
	sp = tr.Begin(2, 0, "op", "subj")
	sp.End()
}

func discardedBegin(tr *Tracer) {
	tr.Begin(1, 0, "op", "subj") // want `Begin result is discarded without End/EndStatus`
}

func discardedFluentChain(tr *Tracer) {
	tr.Begin(1, 0, "op", "subj").Int("k", 1) // want `Begin result is discarded without End/EndStatus`
}

// --- correct lifecycles ---

func straightLine(tr *Tracer) {
	sp := tr.Begin(1, 0, "op", "subj")
	sp.Int("k", 1)
	sp.End()
}

func fluentOneliner(tr *Tracer) {
	tr.Begin(1, 0, "op", "subj").Int("k", 1).EndStatus(Status(2))
}

func chainClose(tr *Tracer) {
	sp := tr.Begin(1, 0, "op", "subj")
	sp.Int("k", 1).End() // closing through the fluent chain settles sp
}

func deferredClose(tr *Tracer) (err error) {
	sp := tr.Begin(1, 0, "op", "subj")
	defer sp.End()
	return nil
}

func branchesBothClose(tr *Tracer, ok bool) {
	sp := tr.Begin(1, 0, "op", "subj")
	if ok {
		sp.End()
		return
	}
	sp.EndStatus(Status(3))
}

func fieldHandoff(tr *Tracer, h *holder) {
	// Stored for a later phase to close: h now owns the span.
	h.sp = tr.Begin(1, 0, "op", "subj")
}

func localThenFieldHandoff(tr *Tracer, h *holder) {
	sp := tr.Begin(1, 0, "op", "subj")
	sp.Int("k", 1)
	h.sp = sp
}

func callHandoff(tr *Tracer) {
	sp := tr.Begin(1, 0, "op", "subj")
	consume(sp)
}

func returnHandoff(tr *Tracer) *Span {
	sp := tr.Begin(1, 0, "op", "subj")
	return sp
}

func closureHandoff(tr *Tracer, run func(func())) {
	sp := tr.Begin(1, 0, "op", "subj")
	run(func() { sp.End() })
}

func doubleCloseAllowed(tr *Tracer, retry bool) {
	// End is idempotent: closing twice must not be reported.
	sp := tr.Begin(1, 0, "op", "subj")
	if retry {
		sp.EndStatus(Status(1))
	}
	sp.End()
}

func suppressedLeak(tr *Tracer) {
	//lint:ignore spanlifecycle fixture proving the suppression mechanism works
	sp := tr.Begin(1, 0, "op", "subj")
	sp.Int("k", 1)
}
