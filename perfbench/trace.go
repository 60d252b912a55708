package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program:
// its name, interval, the span that caused it, and the op it belongs to.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`     // op id shared by every span of one op; -1 outside ops
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes allocated while the span was open, children
	// included. It is exact only when nothing else runs concurrently.
	Alloc uint64 `json:"alloc_bytes"`
}

// Tracer records spans in memory. A nil *Tracer records nothing, so the
// workloads call it unconditionally and the untraced run pays one nil check
// per boundary.
type Tracer struct {
	epoch  time.Time
	allocs func() uint64

	mu    sync.Mutex
	spans []Span
}

// newTracer returns a tracer whose spans carry allocation deltas read by
// allocs (nil leaves them zero).
func newTracer(allocs func() uint64) *Tracer {
	return &Tracer{epoch: time.Now(), allocs: allocs}
}

// exactAllocs reads the cumulative heap allocation exactly. It stops the
// world, so it is used only where one goroutine does all the work.
func exactAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Begin opens a span and returns its id (-1 on a nil tracer).
func (t *Tracer) Begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	var a uint64
	if t.allocs != nil {
		a = t.allocs()
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now, Alloc: a})
	return len(t.spans) - 1
}

// End closes the span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	var a uint64
	if t.allocs != nil {
		a = t.allocs()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	s.Alloc = a - s.Alloc
}

// Record adds an already-timed span (used where the interval is measured
// by a transport hook rather than around a call).
func (t *Tracer) Record(name string, op, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines to path, creating its directory.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// LayerStat aggregates the spans of one name.
type LayerStat struct {
	Name  string
	Calls int
	// Total is the summed span duration; Self subtracts the part of each
	// span's interval its children cover.
	Total, Self time.Duration
	// SelfAlloc is the summed allocation of the spans minus their
	// children's (floored at zero per span, since concurrent spans can see
	// each other's allocations).
	SelfAlloc uint64
	// InOp counts the calls made directly inside an "op" span, whose self
	// time is part of that op's wall time.
	InOp int
}

// SelfMS returns the mean self time per call in milliseconds.
func (l *LayerStat) SelfMS() float64 {
	if l == nil || l.Calls == 0 {
		return 0
	}
	return float64(l.Self) / float64(l.Calls) / 1e6
}

// TotalMS returns the mean inclusive time per call in milliseconds.
func (l *LayerStat) TotalMS() float64 {
	if l == nil || l.Calls == 0 {
		return 0
	}
	return float64(l.Total) / float64(l.Calls) / 1e6
}

// SelfAllocMB returns the mean self allocation per call in MiB.
func (l *LayerStat) SelfAllocMB() float64 {
	if l == nil || l.Calls == 0 {
		return 0
	}
	return float64(l.SelfAlloc) / float64(l.Calls) / (1 << 20)
}

// layerStats computes every span name's call count, total and self time,
// and allocation. A span's self time is its duration minus the union of
// its children's intervals clipped to it.
func layerStats(spans []Span) map[string]*LayerStat {
	children := make(map[int][]Span)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*LayerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &LayerStat{Name: s.Name}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.Calls++
		if p, ok := byID[s.Parent]; ok && p.Name == "op" {
			st.InOp++
		}
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s, children[s.ID]))
		var childAlloc uint64
		for _, c := range children[s.ID] {
			childAlloc += c.Alloc
		}
		if s.Alloc > childAlloc {
			st.SelfAlloc += s.Alloc - childAlloc
		}
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// the kids' intervals covers.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			sum += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}
