package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (sorted
// in place); 0 for an empty slice.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(p/100*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// spanLog keeps every timed call the benchmark makes as a span in
// memory — name, start, end and the span that caused it — and writes
// them out as Chrome trace-event JSON when the run ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id
// and the function that closes it. A nil log records nothing.
func (l *spanLog) begin(parent int, name string) (int, func()) {
	if l == nil {
		return 0, func() {}
	}
	start := time.Since(l.epoch)
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: start, End: -1})
	id := len(l.spans)
	l.mu.Unlock()
	return id, func() {
		end := time.Since(l.epoch)
		l.mu.Lock()
		l.spans[id-1].End = end
		l.mu.Unlock()
	}
}

// add records an already-timed call.
func (l *spanLog) add(parent int, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: start.Sub(l.epoch), End: end.Sub(l.epoch)})
	l.mu.Unlock()
}

// write exports the spans; a span's parent is kept in its args.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]int `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent}})
	}
	l.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
