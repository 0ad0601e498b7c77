package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	t.Run("empty is disabled", func(t *testing.T) {
		spec, err := ParseSpec("")
		if err != nil {
			t.Fatalf("ParseSpec(\"\"): %v", err)
		}
		if spec.Enabled() {
			t.Error("empty spec reports Enabled")
		}
		if spec.String() != "" {
			t.Errorf("empty spec String() = %q, want \"\"", spec.String())
		}
	})
	t.Run("per-site rates with whitespace", func(t *testing.T) {
		spec, err := ParseSpec(" buddy-alloc = 0.5 , trace-corrupt=0.25 ")
		if err != nil {
			t.Fatalf("ParseSpec: %v", err)
		}
		if got := spec.Rate(SiteBuddyAlloc); got != 0.5 {
			t.Errorf("buddy-alloc rate = %g, want 0.5", got)
		}
		if got := spec.Rate(SiteTraceCorrupt); got != 0.25 {
			t.Errorf("trace-corrupt rate = %g, want 0.25", got)
		}
		if got := spec.Rate(SiteTHPAlloc); got != 0 {
			t.Errorf("unset site rate = %g, want 0", got)
		}
	})
	t.Run("all expands to every site", func(t *testing.T) {
		spec, err := ParseSpec("all=0.1")
		if err != nil {
			t.Fatalf("ParseSpec: %v", err)
		}
		for _, site := range Sites() {
			if spec.Rate(site) != 0.1 {
				t.Errorf("site %s rate = %g, want 0.1", site, spec.Rate(site))
			}
		}
	})
	t.Run("unknown site names the valid set", func(t *testing.T) {
		_, err := ParseSpec("buddy-aloc=0.1")
		if err == nil {
			t.Fatal("unknown site accepted")
		}
		msg := err.Error()
		if !strings.Contains(msg, `"buddy-aloc"`) {
			t.Errorf("error %q does not quote the bad site", msg)
		}
		for _, site := range Sites() {
			if !strings.Contains(msg, string(site)) {
				t.Errorf("error %q does not list valid site %q", msg, site)
			}
		}
	})
	t.Run("bad rates rejected", func(t *testing.T) {
		for _, in := range []string{"buddy-alloc=x", "buddy-alloc=-0.1", "buddy-alloc=1.5", "buddy-alloc=NaN", "buddy-alloc", "buddy-alloc=0.1,,thp-alloc=0.2"} {
			if _, err := ParseSpec(in); err == nil {
				t.Errorf("ParseSpec(%q) accepted a bad entry", in)
			}
		}
	})
	t.Run("String is canonical and round-trips", func(t *testing.T) {
		spec, err := ParseSpec("trace-corrupt=0.25,buddy-alloc=0.5")
		if err != nil {
			t.Fatalf("ParseSpec: %v", err)
		}
		want := "buddy-alloc=0.5,trace-corrupt=0.25"
		if got := spec.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parsing String(): %v", err)
		}
		if again.String() != want {
			t.Errorf("round-trip String() = %q, want %q", again.String(), want)
		}
	})
}

func TestNilPlaneInjectsNothing(t *testing.T) {
	var p *Plane
	if p.Fire(SiteBuddyAlloc) {
		t.Error("nil plane fired")
	}
	if err := p.Fail(SiteTraceCorrupt); err != nil {
		t.Errorf("nil plane Fail = %v", err)
	}
	if p.Injected(SiteTHPAlloc) != 0 || p.Crossings(SiteTHPAlloc) != 0 {
		t.Error("nil plane has counters")
	}
	if NewPlane(Spec{}, 1) != nil {
		t.Error("NewPlane with zero spec is not nil")
	}
	if NewPlane(Spec{Rates: map[Site]float64{SiteBuddyAlloc: 0}}, 1) != nil {
		t.Error("NewPlane with all-zero rates is not nil")
	}
}

func TestPlaneDeterministicSequence(t *testing.T) {
	spec := Spec{Rates: map[Site]float64{SiteBuddyAlloc: 0.3, SiteTraceCorrupt: 0.3}}
	draw := func(p *Plane, site Site, n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if p.Fire(site) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	// Same seed, same per-site sequences, regardless of interleaving
	// with the other site.
	a := NewPlane(spec, 42)
	seqA := draw(a, SiteBuddyAlloc, 200)
	b := NewPlane(spec, 42)
	var seqB strings.Builder
	for i := 0; i < 200; i++ {
		b.Fire(SiteTraceCorrupt) // interleave draws on another site
		if b.Fire(SiteBuddyAlloc) {
			seqB.WriteByte('1')
		} else {
			seqB.WriteByte('0')
		}
	}
	if seqA != seqB.String() {
		t.Error("buddy-alloc sequence perturbed by interleaved trace-corrupt draws")
	}
	if !strings.Contains(seqA, "1") || !strings.Contains(seqA, "0") {
		t.Errorf("sequence %q is degenerate at rate 0.3", seqA[:32])
	}
	// Different seeds give different sequences.
	c := NewPlane(spec, 43)
	if draw(c, SiteBuddyAlloc, 200) == seqA {
		t.Error("seed 43 reproduced seed 42's sequence")
	}
}

func TestPlaneRateOne(t *testing.T) {
	p := NewPlane(Spec{Rates: map[Site]float64{SiteCompactMigrate: 1}}, 7)
	for i := 1; i <= 10; i++ {
		err := p.Fail(SiteCompactMigrate)
		if err == nil {
			t.Fatalf("crossing %d did not fail at rate 1", i)
		}
		if !IsInjected(err) {
			t.Fatalf("IsInjected(%v) = false", err)
		}
		if !IsInjected(fmt.Errorf("wrapping: %w", err)) {
			t.Fatal("IsInjected fails through wrapping")
		}
		var fe *Error
		if !errors.As(err, &fe) || fe.Site != SiteCompactMigrate || fe.Seq != uint64(i) {
			t.Fatalf("error %v, want site %s seq %d", err, SiteCompactMigrate, i)
		}
	}
	if p.Injected(SiteCompactMigrate) != 10 || p.Crossings(SiteCompactMigrate) != 10 {
		t.Errorf("counters injected=%d crossings=%d, want 10/10",
			p.Injected(SiteCompactMigrate), p.Crossings(SiteCompactMigrate))
	}
	if IsInjected(errors.New("ordinary")) {
		t.Error("IsInjected true for an ordinary error")
	}
}

func TestUnconfiguredSiteNeverDraws(t *testing.T) {
	// A site with no rate must not consume randomness, so enabling a
	// second site can't perturb the first site's sequence.
	one := NewPlane(Spec{Rates: map[Site]float64{SiteBuddyAlloc: 0.5}}, 99)
	both := NewPlane(Spec{Rates: map[Site]float64{SiteBuddyAlloc: 0.5, SiteTHPAlloc: 0.5}}, 99)
	for i := 0; i < 100; i++ {
		both.Fire(SiteTHPAlloc)
		if one.Fire(SiteBuddyAlloc) != both.Fire(SiteBuddyAlloc) {
			t.Fatalf("crossing %d: buddy-alloc sequence differs when thp-alloc is enabled", i)
		}
	}
	if one.Crossings(SiteTHPAlloc) != 0 {
		t.Error("unconfigured site recorded crossings")
	}
}
