package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"colt/internal/experiments"
)

// FuzzCanonicalize feeds arbitrary submit bodies through the decode
// handleSubmit uses (unknown fields refused) and then Canonicalize
// against the real registry. No body may panic. An accepted spec must
// lie within the limits that keep a job's host memory bounded — frames
// in [0, MaxFrames] and scale in [0, MaxScale], on the spec and on the
// resolved options — with refs and retries non-negative. Its hash must
// be stable across calls and ignore trace and deadline_ms, which never
// change a report. The seed corpus in testdata/fuzz/FuzzCanonicalize
// holds each limit and one past it, negative values, 1e308 and an
// unknown field.
func FuzzCanonicalize(f *testing.F) {
	reg := experiments.Registry()
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		job, err := Canonicalize(spec, reg)
		if err != nil {
			return // refusal is fine; panics are not
		}
		o := job.Opts
		switch {
		case spec.Frames < 0 || spec.Frames > experiments.MaxFrames || o.Frames < 0 || o.Frames > experiments.MaxFrames:
			t.Fatalf("%s: accepted frames %d (resolved %d)", body, spec.Frames, o.Frames)
		case !(spec.Scale >= 0 && spec.Scale <= experiments.MaxScale) || !(o.Scale >= 0 && o.Scale <= experiments.MaxScale):
			t.Fatalf("%s: accepted scale %g (resolved %g)", body, spec.Scale, o.Scale)
		case spec.Refs < 0 || o.Refs < 0:
			t.Fatalf("%s: accepted refs %d (resolved %d)", body, spec.Refs, o.Refs)
		case o.Retries < 0:
			t.Fatalf("%s: accepted retries %d", body, o.Retries)
		}
		again, err := Canonicalize(spec, reg)
		if err != nil || again.Hash != job.Hash {
			t.Fatalf("%s: second call gave hash %q, err %v; first %q", body, again.Hash, err, job.Hash)
		}
		spec.Trace = !spec.Trace
		spec.DeadlineMs = spec.DeadlineMs/2 + 1
		other, err := Canonicalize(spec, reg)
		if err != nil || other.Hash != job.Hash {
			t.Fatalf("%s: trace/deadline_ms changed the hash to %q (err %v), want %q", body, other.Hash, err, job.Hash)
		}
	})
}
