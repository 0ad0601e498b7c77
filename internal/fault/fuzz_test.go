package fault_test

import (
	"slices"
	"testing"

	"colt/internal/fault"
	"colt/internal/server/faultfs"
)

// FuzzParseSpec asserts the spec parser's contract over arbitrary
// flag values, against both site lists that use it (the simulator's
// -faults and coltd's -disk-faults): no input panics, every accepted
// rate is a real probability in [0, 1] on a valid site, the canonical
// String re-parses to itself, and a spec is Enabled exactly when its
// canonical String is non-empty. The seed corpus lives in
// testdata/fuzz/FuzzParseSpec; its NaN entries are rates that must be
// refused, since a NaN rate never fires and renders as no fault at
// all.
func FuzzParseSpec(f *testing.F) {
	lists := []struct {
		name  string
		sites []fault.Site
	}{
		{"simulator", fault.Sites()},
		{"disk", faultfs.Ops()},
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, l := range lists {
			spec, err := fault.Parse(in, l.sites)
			if err != nil {
				continue // rejection is fine; panics are not
			}
			for site, rate := range spec.Rates {
				if !(rate >= 0 && rate <= 1) {
					t.Fatalf("%s: Parse(%q) accepted rate %g for %s", l.name, in, rate, site)
				}
				if !slices.Contains(l.sites, site) {
					t.Fatalf("%s: Parse(%q) accepted unknown site %q", l.name, in, site)
				}
			}
			canon := spec.String()
			again, err := fault.Parse(canon, l.sites)
			if err != nil {
				t.Fatalf("%s: canonical %q of %q does not re-parse: %v", l.name, canon, in, err)
			}
			if got := again.String(); got != canon {
				t.Fatalf("%s: %q re-parses to %q, want %q", l.name, in, got, canon)
			}
			if spec.Enabled() != (canon != "") {
				t.Fatalf("%s: Parse(%q): Enabled() = %v but String() = %q", l.name, in, spec.Enabled(), canon)
			}
		}
	})
}
