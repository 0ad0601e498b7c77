// Package server is coltd's serving layer: it exposes the experiment
// engine over HTTP/JSON with a bounded job queue, a content-addressed
// result cache, and per-job streaming progress.
//
// The core bet is that determinism makes simulation results perfectly
// cacheable: a job's report is a pure function of its canonicalized
// spec, so the SHA-256 of the canonical spec JSON is a content address
// for the report, identical specs are served from cache without
// re-simulating, and a cache hit is verifiable byte-for-byte against
// the recorded report hash. Around that core sit the serving-stack
// mechanics that transfer to any inference-style service: admission
// control (bounded queue depth and a per-request reference ceiling,
// refusing with 429/503 + Retry-After), request coalescing (identical
// in-flight specs share one execution), per-endpoint latency and
// inflight counters, and graceful drain (finish in-flight work, leave
// the queued rest journaled for the next boot to replay).
package server

import (
	"fmt"
	"sort"
	"strings"

	"colt/internal/experiments"
	"colt/internal/fault"
	"colt/internal/metrics"
)

// Spec is the job submission body of POST /v1/jobs. Zero-valued
// fields take the experiment engine's defaults (DefaultOptions, or
// QuickOptions under quick:true), with the same override semantics as
// the cmd/experiments flags — a refs override derives warmup as
// refs/10. EXPERIMENTS.md documents the JSON schema.
type Spec struct {
	// Experiment names a registry entry (experiments.Registry).
	Experiment string `json:"experiment"`
	// Quick selects the small quick-run base options.
	Quick bool `json:"quick,omitempty"`
	// Frames overrides physical memory frames (0 = default).
	Frames int `json:"frames,omitempty"`
	// Scale overrides the workload footprint scale (0 = default).
	Scale float64 `json:"scale,omitempty"`
	// Refs overrides measured references per benchmark (0 = default);
	// warmup follows as refs/10.
	Refs int `json:"refs,omitempty"`
	// Seed overrides the RNG seed (0 = default).
	Seed uint64 `json:"seed,omitempty"`
	// Faults is a deterministic fault-injection spec
	// ("site=rate,..." or "all=rate"; see internal/fault).
	Faults string `json:"faults,omitempty"`
	// Histograms embeds telemetry histograms and phase spans in the
	// report.
	Histograms bool `json:"histograms,omitempty"`
	// CheckInvariants arms the invariant auditors at job checkpoints.
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// Retries is the per-job deterministic retry budget for injected
	// faults. nil takes the engine default (1); explicit 0 disables.
	Retries *int `json:"retries,omitempty"`
	// Trace records a Chrome trace-event artifact for the job, served
	// at /v1/jobs/{id}/trace. Tracing never changes the report, so it
	// is excluded from the cache key — but traces exist only for jobs
	// that actually simulated, never for cache hits.
	Trace bool `json:"trace,omitempty"`
	// DeadlineMs is the client's patience budget in milliseconds
	// (0 = none), measured from admission. A job still queued past its
	// deadline is shed instead of dispatched; a running job has the
	// deadline propagated into its execution context. Wall-clock
	// policy, so never part of the cache key — and a submission that
	// coalesces onto an in-flight job inherits that job's deadline.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// canonicalSpec is the hashed form of a job: the experiment name plus
// the deterministic options snapshot the metrics layer already embeds
// in reports, and the two knobs outside that snapshot which still
// shape report bytes (auditor arming changes failure records; the
// retry budget changes attempt counts). Everything that cannot change
// the report — Trace, the worker count, wall-clock timeouts — is
// deliberately absent, so requests differing only in those coalesce
// onto one cache entry.
type canonicalSpec struct {
	Experiment      string          `json:"experiment"`
	Options         metrics.Options `json:"options"`
	CheckInvariants bool            `json:"check_invariants,omitempty"`
	Retries         int             `json:"retries"`
}

// CanonicalJob is a validated, canonicalized submission: the resolved
// registry entry, the fully-expanded engine options, and the
// content-address hash. Spelling out the base's own frames, scale or
// seed never changes the hash; spelling out its refs keeps the hash
// only where refs/10 equals the base warmup (DefaultOptions, not
// QuickOptions). quick:true has no spelled-out equivalent: cold
// scale, churn ops and mid-run churn are not spec fields.
type CanonicalJob struct {
	Spec Spec // the submission as received (journal replay re-submits it)
	Exp  experiments.NamedExperiment
	Opts experiments.Options
	Hash string
}

// Canonicalize validates spec against a registry (the server's, which
// tests may stub) and resolves it to a CanonicalJob. Errors name the
// offending field and, for unknown experiments, the valid set — they
// are the 400 bodies of the submit endpoint.
func Canonicalize(spec Spec, reg []experiments.NamedExperiment) (CanonicalJob, error) {
	var exp experiments.NamedExperiment
	found := false
	for _, e := range reg {
		if e.Name == spec.Experiment {
			exp, found = e, true
			break
		}
	}
	if !found {
		names := make([]string, len(reg))
		for i, e := range reg {
			names[i] = e.Name
		}
		sort.Strings(names)
		return CanonicalJob{}, fmt.Errorf("unknown experiment %q; valid experiments: %s",
			spec.Experiment, strings.Join(names, ", "))
	}
	if spec.Frames < 0 {
		return CanonicalJob{}, fmt.Errorf("frames must be >= 0, got %d", spec.Frames)
	}
	if spec.Frames > experiments.MaxFrames {
		return CanonicalJob{}, fmt.Errorf("frames must be at most %d (experiments.MaxFrames), got %d", experiments.MaxFrames, spec.Frames)
	}
	if spec.Scale < 0 {
		return CanonicalJob{}, fmt.Errorf("scale must be >= 0, got %g", spec.Scale)
	}
	if !(spec.Scale <= experiments.MaxScale) { // NaN fails too
		return CanonicalJob{}, fmt.Errorf("scale must be at most %d (experiments.MaxScale), got %g", experiments.MaxScale, spec.Scale)
	}
	if spec.Refs < 0 {
		return CanonicalJob{}, fmt.Errorf("refs must be >= 0, got %d", spec.Refs)
	}
	if spec.Retries != nil && *spec.Retries < 0 {
		return CanonicalJob{}, fmt.Errorf("retries must be >= 0, got %d", *spec.Retries)
	}
	if spec.DeadlineMs < 0 {
		return CanonicalJob{}, fmt.Errorf("deadline_ms must be >= 0, got %d", spec.DeadlineMs)
	}
	faults, err := fault.ParseSpec(spec.Faults)
	if err != nil {
		return CanonicalJob{}, fmt.Errorf("faults: %w", err)
	}

	opts := experiments.DefaultOptions()
	if spec.Quick {
		opts = experiments.QuickOptions()
	}
	if spec.Scale > 0 {
		opts.Scale = spec.Scale
	}
	if spec.Refs > 0 {
		opts.Refs = spec.Refs
		opts.Warmup = spec.Refs / 10
	}
	if spec.Frames > 0 {
		opts.Frames = spec.Frames
	}
	if spec.Seed != 0 {
		opts.Seed = spec.Seed
	}
	opts.Faults = faults
	opts.Histograms = spec.Histograms
	opts.CheckInvariants = spec.CheckInvariants
	opts.Retries = 1
	if spec.Retries != nil {
		opts.Retries = *spec.Retries
	}

	hash, err := metrics.HashHex(canonicalSpec{
		Experiment:      exp.Name,
		Options:         opts.Snapshot(),
		CheckInvariants: spec.CheckInvariants,
		Retries:         opts.Retries,
	})
	if err != nil {
		return CanonicalJob{}, fmt.Errorf("hashing spec: %w", err)
	}
	return CanonicalJob{Spec: spec, Exp: exp, Opts: opts, Hash: hash}, nil
}
