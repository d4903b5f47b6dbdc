package cachesim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

// FuzzSimulatorInvariants replays fuzzer-chosen traces through every
// registered policy with the invariant checker on: any bookkeeping break —
// tag duplication, recency corruption, stats identity failure, or a policy
// self-check error — panics with *InvariantViolation and fails the run.
// Belady-family policies need an oracle over the exact trace, so the fuzz
// covers them too by building one per input. A second simulator that keeps
// the access-preuse history steps over the same accesses under its own
// policy instance and must agree on every result and on the final stats.
func FuzzSimulatorInvariants(f *testing.F) {
	f.Add([]byte{0, 0, 0}, uint8(0), uint8(0))
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09"), uint8(2), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(7), uint8(3))

	names := policy.Names()
	geometries := []cache.Config{
		{Sets: 1, Ways: 1, LineSize: 64},
		{Sets: 2, Ways: 2, LineSize: 64},
		{Sets: 4, Ways: 4, LineSize: 64},
		{Sets: 8, Ways: 2, LineSize: 64},
	}

	f.Fuzz(func(t *testing.T, data []byte, polSel, geoSel uint8) {
		var accesses []trace.Access
		for i := 0; i+2 < len(data); i += 3 {
			b := data[i]
			a := trace.Access{
				Type: trace.AccessType(b & 0x3),
				PC:   0x400000 + uint64(b>>2)*4,
				Addr: (uint64(data[i+1]) | uint64(data[i+2])&0x1<<8) * 64,
			}
			if a.Type == trace.Writeback {
				a.PC = 0
			}
			accesses = append(accesses, a)
		}
		if len(accesses) == 0 {
			return
		}
		cfg := geometries[int(geoSel)%len(geometries)]
		// Alternate between the registry policies and the oracle-backed
		// Belady variants, which are not registered by name.
		newPolicy := func() policy.Policy {
			switch sel := int(polSel) % (len(names) + 2); {
			case sel < len(names):
				return policy.MustNew(names[sel])
			case sel == len(names):
				return policy.NewBelady(policy.NewOracle(accesses, cfg.LineSize))
			default:
				return policy.NewBeladyBypass(policy.NewOracle(accesses, cfg.LineSize))
			}
		}
		s := New(cfg, 1, newPolicy())
		s.EnableInvariants()
		tracked := New(cfg, 1, newPolicy())
		tracked.EnableInvariants()
		tracked.TrackAccessPreuse()
		for i, a := range accesses {
			if got, want := tracked.Step(a), s.Step(a); got != want {
				t.Fatalf("access %d: tracked simulator %+v, untracked %+v", i, got, want)
			}
		}
		if tracked.Stats() != s.Stats() {
			t.Fatalf("tracked simulator stats %+v, untracked %+v", tracked.Stats(), s.Stats())
		}
	})
}
