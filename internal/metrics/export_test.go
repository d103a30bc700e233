package metrics

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusEmptyRegistry pins the exporter's zero state: a
// registry with no metrics renders to valid (empty) exposition text
// and an empty-but-loadable JSON snapshot, so a freshly started gqd
// never 500s on /metrics.
func TestWritePrometheusEmptyRegistry(t *testing.T) {
	r := New(nil)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus on empty registry: %v", err)
	}
	if got := b.String(); got != "" {
		t.Fatalf("empty registry rendered %q, want no output", got)
	}
	b.Reset()
	if err := r.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON on empty registry: %v", err)
	}
	s, err := LoadSnapshot(&b)
	if err != nil {
		t.Fatalf("LoadSnapshot of empty registry: %v", err)
	}
	if _, ok := s.Metric("anything"); ok {
		t.Fatal("empty snapshot resolved a metric")
	}
}

// TestHistogramZeroObservations pins the exporter on a registered but
// never-observed histogram: all buckets (including +Inf), sum, and
// count must render as explicit zeros rather than being skipped.
func TestHistogramZeroObservations(t *testing.T) {
	r := New(nil)
	r.Histogram("rtt", "round trip", []float64{0.01, 0.1})
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rtt histogram",
		`rtt_bucket{le="0.01"} 0`,
		`rtt_bucket{le="0.1"} 0`,
		`rtt_bucket{le="+Inf"} 0`,
		"rtt_sum 0",
		"rtt_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("zero-observation histogram missing %q:\n%s", want, out)
		}
	}
	s := r.TakeSnapshot()
	m, ok := s.Metric("rtt")
	if !ok || m.Count != 0 || m.Sum != 0 {
		t.Fatalf("zero-observation snapshot = %+v, %v", m, ok)
	}
}

// TestSnapshotUnderConcurrentWrites exercises the export paths while
// writers hammer every metric kind — the live situation inside gqd,
// where /metrics and /events render concurrently with the stepper.
// Run under -race; correctness assertion is that every snapshot is
// internally consistent and the final state is exact.
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	r := New(nil)
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2})
	rec := r.Events()

	const writers, rounds = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(j % 4))
				rec.Emit(EvTCPSegment, "s", int64(j), 0, 0)
			}
		}()
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.TakeSnapshot()
			if m, ok := s.Metric("h"); ok {
				var inBuckets uint64
				for _, n := range m.Counts {
					inBuckets += n
				}
				if inBuckets != m.Count {
					t.Errorf("torn histogram snapshot: buckets sum to %d, count %d", inBuckets, m.Count)
					return
				}
			}
			var b bytes.Buffer
			if err := r.WritePrometheus(&b); err != nil {
				t.Errorf("WritePrometheus under writers: %v", err)
				return
			}
			if err := r.WriteJSON(&b); err != nil {
				t.Errorf("WriteJSON under writers: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	if c.Value() != writers*rounds {
		t.Fatalf("final counter = %d", c.Value())
	}
	if h.Count() != writers*rounds {
		t.Fatalf("final histogram count = %d", h.Count())
	}
	if rec.Seq() != writers*rounds {
		t.Fatalf("final event seq = %d", rec.Seq())
	}
}

// TestFilterEvents covers the shared tail-query filter behind
// gqctl events and gqd /events.
func TestFilterEvents(t *testing.T) {
	now := time.Duration(0)
	r := New(testClock(&now))
	rec := r.Events()
	for i := 0; i < 10; i++ {
		now = time.Duration(i) * time.Second
		typ, subj := EvTCPSegment, "a"
		if i%2 == 1 {
			typ, subj = EvTCPRetransmit, "b"
		}
		rec.Emit(typ, subj, int64(i), 0, 0)
	}
	all := rec.Snapshot()

	if got := FilterEvents(all, EventFilter{}); len(got) != 10 {
		t.Fatalf("zero filter kept %d of 10", len(got))
	}
	if got := FilterEvents(all, EventFilter{Type: EvTCPRetransmit}); len(got) != 5 || got[0].Subject != "b" {
		t.Fatalf("type filter = %+v", got)
	}
	if got := FilterEvents(all, EventFilter{Subject: "a"}); len(got) != 5 || got[0].V1 != 0 {
		t.Fatalf("subject filter = %+v", got)
	}
	if got := FilterEvents(all, EventFilter{Since: 7 * time.Second}); len(got) != 3 || got[0].V1 != 7 {
		t.Fatalf("since filter = %+v", got)
	}
	got := FilterEvents(all, EventFilter{Type: EvTCPSegment, Since: 3 * time.Second, Last: 2})
	if len(got) != 2 || got[0].V1 != 6 || got[1].V1 != 8 {
		t.Fatalf("combined filter = %+v", got)
	}
	if got := FilterEvents(all, EventFilter{Subject: "nope"}); len(got) != 0 {
		t.Fatalf("non-matching filter kept %d events", len(got))
	}
	if got := FilterEvents(all, EventFilter{Last: 3}); len(got) != 3 || got[0].V1 != 7 {
		t.Fatalf("last filter = %+v", got)
	}
}

// goldenRegistry builds a registry with one series of every kind and a
// flight recorder that has wrapped.
func goldenRegistry() *Registry {
	now := 1500 * time.Millisecond
	r := New(testClock(&now))
	r.Counter("pkts_total", "packets sent", "node", "a", "iface", "eth0").Add(42)
	r.Gauge("util", "link utilization").Set(0.25)
	r.GaugeFunc("depth", "queue depth", func() float64 { return 3 }, "q", "ef")
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.02)
	rec := r.Events()
	rec.SetCapacity(3)
	for i := 0; i < 5; i++ {
		now += time.Millisecond
		rec.Emit(EvTCPSegment, "n1", int64(i), 1460, int64(i%2))
	}
	rec.Emit(EvNoRoute, "n2", 0, 0, 0)
	return r
}

// TestWriteJSONGolden pins WriteJSON byte for byte, for an empty
// registry and a populated one: field order, omitted zeros, the null
// lists of an empty registry, and the retained tail of a wrapped
// recorder.
func TestWriteJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *Registry
		want string
	}{
		{"empty", New(nil), goldenEmptyJSON},
		{"populated", goldenRegistry(), goldenPopulatedJSON},
	} {
		var b bytes.Buffer
		if err := tc.reg.WriteJSON(&b); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := b.String(); got != tc.want {
			t.Errorf("%s: WriteJSON =\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

const goldenEmptyJSON = `{
  "taken_at_ns": 0,
  "metrics": null,
  "events": null
}
`

const goldenPopulatedJSON = `{
  "taken_at_ns": 1505000000,
  "metrics": [
    {
      "name": "pkts_total",
      "kind": "counter",
      "labels": {
        "iface": "eth0",
        "node": "a"
      },
      "value": 42
    },
    {
      "name": "util",
      "kind": "gauge",
      "value": 0.25
    },
    {
      "name": "depth",
      "kind": "gauge",
      "labels": {
        "q": "ef"
      },
      "value": 3
    },
    {
      "name": "lat_seconds",
      "kind": "histogram",
      "value": 0,
      "buckets": [
        0.001,
        0.01
      ],
      "counts": [
        1,
        0,
        1
      ],
      "sum": 0.0205,
      "count": 2
    }
  ],
  "events": [
    {
      "seq": 3,
      "at_ns": 1504000000,
      "type": "tcp-segment",
      "subject": "n1",
      "v1": 3,
      "v2": 1460,
      "v3": 1
    },
    {
      "seq": 4,
      "at_ns": 1505000000,
      "type": "tcp-segment",
      "subject": "n1",
      "v1": 4,
      "v2": 1460
    },
    {
      "seq": 5,
      "at_ns": 1505000000,
      "type": "no-route",
      "subject": "n2"
    }
  ],
  "events_overwritten": 3
}
`

// TestTakeSnapshotAllocs pins TakeSnapshot at one allocation per list
// it returns, plus the copy of the registration list, however many
// series and events there are: no intermediate event copy, no append
// growth.
func TestTakeSnapshotAllocs(t *testing.T) {
	r := New(nil)
	for i := 0; i < 100; i++ {
		r.Counter(fmt.Sprintf("c%d", i), "").Inc()
	}
	rec := r.Events()
	for i := 0; i < rec.Capacity()+10; i++ {
		rec.Emit(EvTCPSegment, "n", int64(i), 0, 0)
	}
	if n := len(r.TakeSnapshot().Events); n != rec.Capacity() {
		t.Fatalf("snapshot holds %d events, want %d", n, rec.Capacity())
	}
	if allocs := testing.AllocsPerRun(10, func() { r.TakeSnapshot() }); allocs != 3 {
		t.Errorf("TakeSnapshot makes %.0f allocations, want 3", allocs)
	}
}
