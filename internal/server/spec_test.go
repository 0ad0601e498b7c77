package server

import (
	"testing"

	"colt/internal/experiments"
)

// TestSpelledOutSpecHashes pins which spelled-out specs share a hash
// with their base. Spelling out the base's own frames, scale and seed
// never moves the hash, nor do refs where refs/10 is the base warmup
// (DefaultOptions). Quick's refs are not: a refs field sets warmup to
// 6,000, not quick's 5,000. No spec spells out quick from the default
// base, whose cold scale, churn ops and mid-run churn are not spec
// fields.
func TestSpelledOutSpecHashes(t *testing.T) {
	reg := experiments.Registry()
	for _, tc := range []struct {
		name       string
		base, alt  Spec
		sameHashes bool
	}{
		{"quick frames scale seed", Spec{Experiment: "fig18", Quick: true},
			Spec{Experiment: "fig18", Quick: true, Frames: 32768, Scale: 0.05, Seed: 0xC017}, true},
		{"default frames scale refs seed", Spec{Experiment: "fig18"},
			Spec{Experiment: "fig18", Frames: 262144, Scale: 1, Refs: 2_000_000, Seed: 0xC017}, true},
		{"quick refs", Spec{Experiment: "fig18", Quick: true},
			Spec{Experiment: "fig18", Quick: true, Refs: 60_000}, false},
		{"quick from the default base", Spec{Experiment: "fig18", Quick: true},
			Spec{Experiment: "fig18", Frames: 32768, Scale: 0.05, Refs: 60_000}, false},
	} {
		base, err := Canonicalize(tc.base, reg)
		if err != nil {
			t.Fatal(err)
		}
		alt, err := Canonicalize(tc.alt, reg)
		if err != nil {
			t.Fatal(err)
		}
		if (base.Hash == alt.Hash) != tc.sameHashes {
			t.Errorf("%s: %+v hashes to %s, %+v to %s; want equal=%v",
				tc.name, tc.base, base.Hash, tc.alt, alt.Hash, tc.sameHashes)
		}
	}
}
