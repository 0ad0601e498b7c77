// Package fault is the repository's one deterministic fault-injection
// core. A caller names its injection sites; a Spec maps sites to
// per-crossing failure rates, parsed from a flag value against the
// caller's list of valid sites; a Plane decides per site, from its
// own rng.Stream, whether each crossing of a site fails. Because
// every draw comes from a stream derived purely from (plane seed,
// site name), the injected fault sequence is a function of the seed
// alone — never of scheduling, worker count, or which other sites
// exist — so `-parallel 1` and `-parallel N` inject identical faults.
//
// Two planes use the core. The simulator threads the sites below
// into its hot paths (buddy allocation, compaction migration, THP
// allocation, trace decode), one Plane per job. The serving layer's
// disk plane (internal/server/faultfs) names its own write, rename,
// fsync and slow-I/O sites and serializes one shared Plane under a
// mutex.
//
// A nil *Plane is valid and injects nothing; hot paths may call its
// methods unconditionally without drawing random numbers or
// allocating.
package fault

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"colt/internal/rng"
	"colt/internal/telemetry"
)

// Site names one fault-injection point in the simulator.
type Site string

// The injection sites threaded into the simulator's hot paths.
const (
	// SiteBuddyAlloc fails buddy block allocations, simulating memory
	// pressure. Jobs see it as an allocation error (fatal unless the
	// caller degrades gracefully).
	SiteBuddyAlloc Site = "buddy-alloc"
	// SiteCompactMigrate fails individual compaction page migrations;
	// the compactor treats the page as unmovable and rolls back.
	SiteCompactMigrate Site = "compact-migrate"
	// SiteTHPAlloc fails huge-page allocations; the THP layer falls
	// back to base pages (graceful, counted in THPStats.HugeFails).
	SiteTHPAlloc Site = "thp-alloc"
	// SiteTraceCorrupt corrupts one reference-stream record, aborting
	// the benchmark job with an injected error.
	SiteTraceCorrupt Site = "trace-corrupt"
)

// Sites lists every valid simulator injection site, in display order.
func Sites() []Site {
	return []Site{SiteBuddyAlloc, SiteCompactMigrate, SiteTHPAlloc, SiteTraceCorrupt}
}

// siteNames renders a valid set for error messages.
func siteNames(valid []Site) string {
	names := make([]string, len(valid))
	for i, s := range valid {
		names[i] = string(s)
	}
	return strings.Join(names, ", ")
}

// Spec is a per-site injection rate configuration. The zero value
// injects nothing.
type Spec struct {
	// Rates maps each site to its per-crossing failure probability in
	// [0, 1]. Sites absent from the map never fail.
	Rates map[Site]float64
}

// ParseSpec parses a -faults flag value against the simulator's
// Sites().
func ParseSpec(s string) (Spec, error) { return Parse(s, Sites()) }

// Parse parses comma-separated site=rate pairs, where site is one of
// valid or "all" (every valid site at once) and rate is a probability
// in [0, 1]; NaN is refused with the other out-of-range rates. The
// empty string parses to the zero Spec (no injection).
func Parse(s string, valid []Site) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{}, nil
	}
	spec := Spec{Rates: map[Site]float64{}}
	for _, raw := range strings.Split(s, ",") {
		pair := strings.TrimSpace(raw)
		if pair == "" {
			return Spec{}, fmt.Errorf("fault: empty entry in spec %q (valid sites: %s, all)", s, siteNames(valid))
		}
		name, rateStr, ok := strings.Cut(pair, "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: entry %q is not site=rate (valid sites: %s, all)", pair, siteNames(valid))
		}
		name = strings.TrimSpace(name)
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: rate in %q is not a number: %v", pair, err)
		}
		if !(rate >= 0 && rate <= 1) {
			return Spec{}, fmt.Errorf("fault: rate %g in %q outside [0, 1]", rate, pair)
		}
		if name == "all" {
			for _, site := range valid {
				spec.Rates[site] = rate
			}
			continue
		}
		site := Site(name)
		if !slices.Contains(valid, site) {
			return Spec{}, fmt.Errorf("fault: unknown site %q (valid sites: %s, all)", name, siteNames(valid))
		}
		spec.Rates[site] = rate
	}
	return spec, nil
}

// Enabled reports whether any site has a non-zero rate.
func (s Spec) Enabled() bool {
	for _, r := range s.Rates {
		if r > 0 {
			return true
		}
	}
	return false
}

// Rate returns the configured rate for site (0 if unset).
func (s Spec) Rate(site Site) float64 { return s.Rates[site] }

// String renders the spec canonically (sites sorted by name), so it
// can be embedded in deterministic reports. The zero spec renders "".
func (s Spec) String() string {
	var sites []Site
	for site, r := range s.Rates {
		if r > 0 {
			sites = append(sites, site)
		}
	}
	if len(sites) == 0 {
		return ""
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	parts := make([]string, len(sites))
	for i, site := range sites {
		parts[i] = string(site) + "=" + strconv.FormatFloat(s.Rates[site], 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// Error is the error injected at a site. Seq is the (deterministic)
// per-site crossing count at which the fault fired, so failure
// messages are stable across runs and parallel widths.
type Error struct {
	Site Site
	Seq  uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s failure (crossing %d)", e.Site, e.Seq)
}

// IsInjected reports whether err was produced by the fault plane
// (possibly wrapped).
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// siteState is one site's generator, rate, and counters.
type siteState struct {
	rng       *rng.RNG
	rate      float64
	crossings uint64
	injected  uint64
}

// Plane decides, per site, whether each crossing fails. A nil Plane
// injects nothing and its methods are safe to call. A Plane is NOT
// safe for concurrent use: each simulator job builds its own from its
// own seed, and faultfs serializes its shared one under a mutex.
type Plane struct {
	sites map[Site]*siteState
	// tracer receives EvFaultInject events (nil when disabled); the
	// event's arg is the firing site's index in Sites() order.
	tracer *telemetry.Tracer
}

// SetTracer attaches an event tracer to the plane: every injected
// fault emits EvFaultInject on the OS thread. Safe on a nil plane.
func (p *Plane) SetTracer(tr *telemetry.Tracer) {
	if p != nil {
		p.tracer = tr
	}
}

// siteIndex returns site's position in Sites() order (for compact
// event payloads), or -1 for unknown sites.
func siteIndex(site Site) int {
	for i, s := range Sites() {
		if s == site {
			return i
		}
	}
	return -1
}

// NewPlane builds a plane for spec, deriving one rng stream per
// configured site from seed. Returns nil when spec injects nothing,
// so the disabled case stays allocation- and draw-free.
func NewPlane(spec Spec, seed uint64) *Plane {
	if !spec.Enabled() {
		return nil
	}
	root := rng.New(seed)
	p := &Plane{sites: make(map[Site]*siteState, len(spec.Rates))}
	for site, rate := range spec.Rates {
		if rate <= 0 {
			continue
		}
		p.sites[site] = &siteState{rng: root.Stream(string(site)), rate: rate}
	}
	return p
}

// Fire reports whether this crossing of site fails. Sites with no
// configured rate never draw, so enabling one site cannot perturb
// another's sequence.
func (p *Plane) Fire(site Site) bool {
	if p == nil {
		return false
	}
	st := p.sites[site]
	if st == nil {
		return false
	}
	st.crossings++
	if !st.rng.Bool(st.rate) {
		return false
	}
	st.injected++
	p.tracer.Emit(telemetry.EvFaultInject, 0, telemetry.LevelNone, uint64(siteIndex(site)), st.injected)
	return true
}

// Fail returns an injected *Error if this crossing of site fails, and
// nil otherwise.
func (p *Plane) Fail(site Site) error {
	if !p.Fire(site) {
		return nil
	}
	return &Error{Site: site, Seq: p.sites[site].crossings}
}

// Injected returns how many faults have fired at site.
func (p *Plane) Injected(site Site) uint64 {
	if p == nil || p.sites[site] == nil {
		return 0
	}
	return p.sites[site].injected
}

// Crossings returns how many times site has been evaluated.
func (p *Plane) Crossings(site Site) uint64 {
	if p == nil || p.sites[site] == nil {
		return 0
	}
	return p.sites[site].crossings
}
