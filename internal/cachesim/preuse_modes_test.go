package cachesim_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	_ "repro/internal/core" // registers the rlr policy variants
	"repro/internal/policy"
	"repro/internal/refmodel"
)

// TestTrackedMatchesUntracked: keeping the access-preuse history must not
// change what a simulator does. A tracked and an untracked simulator,
// stepped lock-step over every refmodel trace class under every registered
// policy and Belady, return equal results on every access.
func TestTrackedMatchesUntracked(t *testing.T) {
	geo := cache.Config{Sets: 16, Ways: 4, LineSize: 64}
	const n = 3000
	for _, class := range refmodel.Classes() {
		accesses := class.Gen(1, n)
		newPolicy := func(name string) policy.Policy {
			if name == "belady" {
				return policy.NewBelady(policy.NewOracle(accesses, geo.LineSize))
			}
			return policy.MustNew(name)
		}
		for _, name := range append(policy.Names(), "belady") {
			plain := cachesim.New(geo, 1, newPolicy(name))
			tracked := cachesim.New(geo, 1, newPolicy(name))
			tracked.TrackAccessPreuse()
			for i, a := range accesses {
				if got, want := tracked.Step(a), plain.Step(a); got != want {
					t.Fatalf("%s/%s: access %d: tracked %+v, untracked %+v", class.Name, name, i, got, want)
				}
				if tracked.Stats() != plain.Stats() {
					t.Fatalf("%s/%s: access %d: tracked stats %+v, untracked %+v",
						class.Name, name, i, tracked.Stats(), plain.Stats())
				}
			}
		}
	}
}
