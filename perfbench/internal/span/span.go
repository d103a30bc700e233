// Package span is the benchmark's wall-clock timer and in-memory span
// recorder. Every duration the benchmark reports is taken through a
// Span, so the untraced and the traced run time exactly the same
// intervals; the traced run additionally retains each finished span
// (name, point id, parent, start, end) for write-out at exit.
//
// The package has no simulator imports: it is the one place the
// benchmark reads the wall clock.
package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval.
type Span struct {
	rec    *Recorder
	id     int64
	parent int64
	point  int
	name   string
	start  time.Time
	ended  bool
	dur    time.Duration
}

// Record is a finished span as retained and written out.
type Record struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Point   int    `json:"point"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Recorder retains finished spans when enabled. It is safe for use
// by concurrent sweep workers.
type Recorder struct {
	epoch  time.Time
	keep   bool
	mu     sync.Mutex
	nextID int64
	done   []Record
}

// NewRecorder returns a recorder; keep selects whether finished spans
// are retained (the traced run) or only timed (the untraced run).
func NewRecorder(keep bool) *Recorder {
	return &Recorder{epoch: time.Now(), keep: keep}
}

// Begin starts a span. parent is nil for a root span; point is the
// sweep point the span belongs to (-1 for spans above the points).
func (r *Recorder) Begin(name string, point int, parent *Span) *Span {
	s := &Span{rec: r, point: point, name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	if r.keep {
		r.mu.Lock()
		r.nextID++
		s.id = r.nextID
		r.mu.Unlock()
	}
	return s
}

// End stops the span and returns its duration. Ending twice returns
// the first duration.
func (s *Span) End() time.Duration {
	if s.ended {
		return s.dur
	}
	end := time.Now()
	s.ended = true
	s.dur = end.Sub(s.start)
	if r := s.rec; r.keep {
		r.mu.Lock()
		r.done = append(r.done, Record{
			ID: s.id, Parent: s.parent, Point: s.point, Name: s.name,
			StartNS: int64(s.start.Sub(r.epoch)), EndNS: int64(end.Sub(r.epoch)),
		})
		r.mu.Unlock()
	}
	return s.dur
}

// Records returns the retained spans ordered by start time.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	out := append([]Record(nil), r.done...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SelfTimes sums, per span name, each span's duration minus the part
// of its interval covered by its children (overlapping children are
// merged, so concurrent children are not subtracted twice).
func SelfTimes(recs []Record) map[string]time.Duration {
	children := make(map[int64][][2]int64)
	for _, r := range recs {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], [2]int64{r.StartNS, r.EndNS})
		}
	}
	out := make(map[string]time.Duration)
	for _, r := range recs {
		covered := coverage(children[r.ID], r.StartNS, r.EndNS)
		out[r.Name] += time.Duration(r.EndNS - r.StartNS - covered)
	}
	return out
}

// coverage returns how much of [lo, hi] the intervals cover.
func coverage(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			if i > 0 {
				flush()
			}
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	flush()
	return total
}

// WriteJSONL writes one JSON object per retained span.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("span: encode: %w", err)
		}
	}
	return bw.Flush()
}
