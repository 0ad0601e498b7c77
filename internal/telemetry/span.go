package telemetry

import "time"

// Span is one named interval of a job measured in simulated time
// (reference indices). StartRef/EndRef are golden-safe: they depend
// only on the workload, never on the scheduler or the wall clock, and
// they are all a report record's JSON carries. Wall is the wall-clock
// duration of the same interval and must never reach a golden-diffed
// report; the metrics layer copies it only into the non-golden
// .timing.json sidecar. The fields are declared in JSON-key order,
// which a metrics report relies on.
type Span struct {
	EndRef   uint64        `json:"end_ref"`
	Name     string        `json:"name"`
	StartRef uint64        `json:"start_ref"`
	Wall     time.Duration `json:"-"`
}

// Spans records a job's phase spans. Begin/End are nil-safe so
// drivers can instrument unconditionally. Spans are sequential (a new
// Begin closes the open span): jobs move through phases in order
// (build → warmup → simulate), so a flat sequence is the whole story.
type Spans struct {
	done    []Span
	open    Span
	active  bool
	started time.Time
	onPhase func(name string)
}

// OnPhase registers a callback fired at every Begin with the new
// phase's name — the hook the live progress reporter hangs off.
func (s *Spans) OnPhase(fn func(name string)) {
	if s != nil {
		s.onPhase = fn
	}
}

// Begin closes any open span at ref and opens a named one. Nil-safe.
func (s *Spans) Begin(name string, ref uint64) {
	if s == nil {
		return
	}
	s.End(ref)
	s.open = Span{Name: name, StartRef: ref}
	s.active = true
	s.started = time.Now()
	if s.onPhase != nil {
		s.onPhase(name)
	}
}

// End closes the open span at ref, if one is open. Nil-safe.
func (s *Spans) End(ref uint64) {
	if s == nil || !s.active {
		return
	}
	s.open.EndRef = ref
	s.open.Wall = time.Since(s.started)
	s.done = append(s.done, s.open)
	s.active = false
}

// All returns the completed spans in begin order.
func (s *Spans) All() []Span {
	if s == nil {
		return nil
	}
	return s.done
}
