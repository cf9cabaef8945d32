package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the harness into a layer. Start and End
// are Unix nanoseconds, so spans recorded by separate processes of one
// run share a timeline.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: no parent
	Run    string `json:"run"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Value is a count or ratio recorded at a layer boundary.
type Value struct {
	Run  string  `json:"run"`
	Kind string  `json:"kind"`
	Name string  `json:"name"`
	V    float64 `json:"v"`
}

// Recorder keeps a traced run's spans and values in memory until the
// run writes them out. A nil *Recorder records nothing, which is how
// untraced runs execute the same code without tracing cost.
type Recorder struct {
	mu     sync.Mutex
	run    string
	kind   string
	base   time.Time
	baseNs int64
	nextID int64
	spans  []Span
	values []Value
}

// NewRecorder starts recording spans of the given run id and kind.
func NewRecorder(run, kind string) *Recorder {
	now := time.Now()
	return &Recorder{run: run, kind: kind, base: now, baseNs: now.UnixNano()}
}

// now reads the monotonic clock and places it on the wall-clock
// timeline, so span durations are immune to clock steps.
func (r *Recorder) now() int64 { return r.baseNs + int64(time.Since(r.base)) }

// SetRun tags the spans and values recorded from now on.
func (r *Recorder) SetRun(run, kind string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run, r.kind = run, kind
	r.mu.Unlock()
}

// Start opens a span and returns its id and the function that closes
// it. It is safe for concurrent use.
func (r *Recorder) Start(parent int64, name string) (int64, func()) {
	if r == nil {
		return 0, func() {}
	}
	r.mu.Lock()
	r.nextID++
	s := Span{ID: r.nextID, Parent: parent, Run: r.run, Kind: r.kind, Name: name}
	r.mu.Unlock()
	s.Start = r.now()
	return s.ID, func() {
		s.End = r.now()
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// Done records a finished span whose name was known only at its end.
func (r *Recorder) Done(parent int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nextID++
	r.spans = append(r.spans, Span{ID: r.nextID, Parent: parent, Run: r.run, Kind: r.kind, Name: name,
		Start: r.baseNs + int64(start.Sub(r.base)), End: r.baseNs + int64(end.Sub(r.base))})
	r.mu.Unlock()
}

// Add records a value under the current run.
func (r *Recorder) Add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.values = append(r.values, Value{Run: r.run, Kind: r.kind, Name: name, V: v})
	r.mu.Unlock()
}

// Merge adopts spans and values recorded by another process,
// renumbering span ids so they stay unique; parent links inside the
// batch follow, and a root's parent becomes under.
func (r *Recorder) Merge(spans []Span, values []Value, under int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make(map[int64]int64, len(spans))
	for _, s := range spans {
		r.nextID++
		ids[s.ID] = r.nextID
	}
	for _, s := range spans {
		s.ID = ids[s.ID]
		if p, ok := ids[s.Parent]; ok {
			s.Parent = p
		} else {
			s.Parent = under
		}
		r.spans = append(r.spans, s)
	}
	r.values = append(r.values, values...)
}

// snapshot returns copies of the recorded spans and values.
func (r *Recorder) snapshot() ([]Span, []Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...), append([]Value(nil), r.values...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children of one span may
// overlap (parallel workers), so coverage is the union of their
// intervals, clipped to the parent's.
func selfTimes(spans []Span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of ivs inside [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// spanRecord is one span as the trace file stores it.
type spanRecord struct {
	Span
	SelfNs int64 `json:"self_ns"`
}

// writeTrace stores the run's spans (with self times), values and
// environment stamp as one JSON document.
func writeTrace(path string, env map[string]any, rec *Recorder) error {
	spans, values := rec.snapshot()
	self := selfTimes(spans)
	out := make([]spanRecord, len(spans))
	for i, s := range spans {
		out[i] = spanRecord{Span: s, SelfNs: self[s.ID]}
	}
	b, err := json.MarshalIndent(map[string]any{"env": env, "spans": out, "values": values}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
