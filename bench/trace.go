package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer of the program. Spans of one job or request share a
// trace ID; parent is the enclosing span's ID (0 for a root).
type span struct {
	Name   string
	ID     int
	Parent int
	Trace  string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	// Calls is how many layer calls the span covers: 1 for a single
	// call, the batch length when per-reference calls are timed in
	// batches.
	Calls int
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs execute the same code paths.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span whose end is not yet recorded.
type openSpan struct {
	t      *tracer
	name   string
	trace  string
	id     int
	parent int
	start  time.Duration
}

// begin starts a span and reserves its ID, so children can name it as
// their parent before it ends.
func (t *tracer) begin(name, trace string, parent int) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, name: name, trace: trace, id: t.newID(), parent: parent, start: time.Since(t.epoch)}
}

// end records the span as covering calls layer calls.
func (o openSpan) end(calls int) {
	if o.t == nil {
		return
	}
	o.t.add(span{Name: o.name, ID: o.id, Parent: o.parent, Trace: o.trace,
		Start: o.start, End: time.Since(o.t.epoch), Calls: calls})
}

// record adds a span whose interval was measured elsewhere: wall-clock
// timestamps from the server's timeline, or the summed duration of
// calls timed inside a batch.
func (t *tracer) record(name, trace string, parent int, start, end time.Duration, calls int) int {
	if t == nil {
		return 0
	}
	id := t.newID()
	t.add(span{Name: name, ID: id, Parent: parent, Trace: trace, Start: start, End: end, Calls: calls})
	return id
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(unixNs int64) time.Duration {
	return time.Duration(unixNs - t.epoch.UnixNano())
}

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStats aggregates every span of one name.
type spanStats struct {
	Name  string
	Spans int
	Calls int
	Total time.Duration
	// Self is Total minus the part of each span's interval that its
	// child spans cover.
	Self time.Duration
	P50  time.Duration // median span duration
}

// summarizeSpans aggregates spans by name, sorted by total time.
func summarizeSpans(spans []span) []spanStats {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanStats)
	durs := make(map[string][]float64)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStats{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Spans++
		st.Calls += s.Calls
		st.Total += d
		st.Self += d - covered(s, children[s.ID])
		durs[s.Name] = append(durs[s.Name], float64(d))
	}
	out := make([]spanStats, 0, len(byName))
	for name, st := range byName {
		st.P50 = time.Duration(median(durs[name]))
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeChrome writes the spans in Chrome trace-event format (one
// complete "X" event per span, one thread lane per trace ID).
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace: %w", err)
	}
	if err := encodeChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

func encodeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	lanes := make(map[string]int)
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		lane, ok := lanes[s.Trace]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.Trace] = lane
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lane,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace, "calls": s.Calls},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ns"})
}
