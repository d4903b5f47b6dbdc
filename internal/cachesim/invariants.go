package cachesim

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/trace"
)

// The invariant checker audits the simulator's own bookkeeping and the
// governing policy's internal state after every access. It is off by
// default (the hot path pays one boolean test) and enabled either
// per-simulator with EnableInvariants, or globally for a whole build with
// the `simcheck` build tag (`go test -tags simcheck ./...`, which is what
// `make check` runs). The passing path allocates nothing, so the
// zero-allocation Step pin holds with checking on.
//
// A violated invariant panics with an *InvariantViolation: once any of
// these identities is false, every downstream statistic is garbage, so
// there is no meaningful way to continue the run.

// victimNotAsked marks an access that never consulted the policy's Victim
// (a hit, or a fill into an invalid way).
const victimNotAsked = -2

// InvariantViolation describes a broken simulator or policy invariant. It
// is the panic value raised by a checking simulator.
type InvariantViolation struct {
	Policy string       // governing policy name
	Seq    uint64       // access sequence number at which the check fired
	Access trace.Access // the access being processed
	Reason string       // which invariant broke, with the observed values
}

// Error implements error.
func (v *InvariantViolation) Error() string {
	return fmt.Sprintf("cachesim: invariant violated at seq %d (policy %s, %s addr %#x pc %#x): %s",
		v.Seq, v.Policy, v.Access.Type, v.Access.Addr, v.Access.PC, v.Reason)
}

// EnableInvariants turns on per-access invariant checking for this
// simulator. Violations panic with an *InvariantViolation.
func (s *Simulator) EnableInvariants() {
	s.inv = true
	s.selfCheck, _ = s.p.(policy.InvariantChecker)
}

// DisableInvariants turns checking back off.
func (s *Simulator) DisableInvariants() {
	s.inv = false
	s.selfCheck = nil
}

// InvariantsEnabled reports whether this simulator is checking invariants.
func (s *Simulator) InvariantsEnabled() bool { return s.inv }

func (s *Simulator) violate(a trace.Access, format string, args ...any) {
	panic(&InvariantViolation{
		Policy: s.p.Name(),
		Seq:    s.seq - 1, // Step already advanced it
		Access: a,
		Reason: fmt.Sprintf(format, args...),
	})
}

// checkVictim validates a policy's victim choice the moment it is returned,
// before the simulator indexes anything with it.
func (s *Simulator) checkVictim(a trace.Access, way int) {
	if way != policy.Bypass && (way < 0 || way >= s.cfg.Ways) {
		s.violate(a, "policy returned victim way %d outside [0, %d) and != Bypass", way, s.cfg.Ways)
	}
}

// checkStep audits the completed access: tag placement and uniqueness,
// recency and age stamp ordering, bypass provenance, the stats accounting
// identities, and the policy's own state via its optional InvariantChecker.
//
// rawVictim is what the policy's Victim returned, or victimNotAsked when
// the access hit or filled an invalid way.
func (s *Simulator) checkStep(a trace.Access, res StepResult, rawVictim int) {
	set := s.c.Set(res.SetIdx)
	ways := s.cfg.Ways

	// Way bounds on the reported result.
	if res.Way < -1 || res.Way >= ways {
		s.violate(a, "StepResult.Way = %d outside [-1, %d)", res.Way, ways)
	}
	if (res.Way == -1) != res.Bypassed {
		s.violate(a, "StepResult.Way = %d inconsistent with Bypassed = %v", res.Way, res.Bypassed)
	}

	// Bypass happens exactly when the policy said Bypass.
	if res.Bypassed != (rawVictim == policy.Bypass) {
		s.violate(a, "bypassed = %v but policy victim return was %d", res.Bypassed, rawVictim)
	}

	// A hit or fill must leave the accessed block resident at the reported
	// way; a bypass must leave it absent.
	blk := s.c.BlockAddr(a.Addr)
	if res.Bypassed {
		for w := range set.Lines {
			if set.Lines[w].Valid && set.Lines[w].Block == blk {
				s.violate(a, "bypassed access's block %#x is resident at way %d", blk, w)
			}
		}
	} else {
		ln := &set.Lines[res.Way]
		if !ln.Valid || ln.Block != blk {
			s.violate(a, "accessed block %#x not resident at reported way %d (valid=%v block=%#x)",
				blk, res.Way, ln.Valid, ln.Block)
		}
	}

	// Tag uniqueness among valid lines (associativity is small; the
	// pairwise scan is cheap and allocation-free).
	for i := 0; i < ways; i++ {
		if !set.Lines[i].Valid {
			continue
		}
		for j := i + 1; j < ways; j++ {
			if set.Lines[j].Valid && set.Lines[i].Tag == set.Lines[j].Tag {
				s.violate(a, "duplicate tag %#x at ways %d and %d of set %d",
					set.Lines[i].Tag, i, j, res.SetIdx)
			}
		}
	}

	// Recency stamps are unique and below the set's clock over all lines
	// (valid or not: the recency order runs across the whole set), so the
	// derived recency ranks form a permutation of 0..ways-1.
	for i := range set.Lines {
		at := set.Lines[i].TouchedAt
		if at >= set.Clock {
			s.violate(a, "recency stamp %d at way %d of set %d not below clock %d",
				at, i, res.SetIdx, set.Clock)
		}
		for j := i + 1; j < ways; j++ {
			if set.Lines[j].TouchedAt == at {
				s.violate(a, "recency stamp %d duplicated at ways %d and %d of set %d",
					at, i, j, res.SetIdx)
			}
		}
	}

	// Age stamps are ordered on valid lines: a line is accessed no earlier
	// than it was inserted, and no later than the set's latest access.
	for w := range set.Lines {
		ln := &set.Lines[w]
		if ln.Valid && !(ln.InsertedAt <= ln.AccessedAt && ln.AccessedAt <= set.Accesses) {
			s.violate(a, "age stamps out of order at way %d of set %d: inserted %d, accessed %d, set accesses %d",
				w, res.SetIdx, ln.InsertedAt, ln.AccessedAt, set.Accesses)
		}
	}

	// Stats accounting identities.
	st := &s.stats
	if st.Hits+st.Misses != st.Accesses {
		s.violate(a, "hits %d + misses %d != accesses %d", st.Hits, st.Misses, st.Accesses)
	}
	if st.DemandHits+st.DemandMisses != st.DemandAccesses {
		s.violate(a, "demand hits %d + misses %d != demand accesses %d",
			st.DemandHits, st.DemandMisses, st.DemandAccesses)
	}
	var byType uint64
	for ty := range st.AccessesByType {
		byType += st.AccessesByType[ty]
		if st.HitsByType[ty] > st.AccessesByType[ty] {
			s.violate(a, "hits by type %s (%d) exceed accesses by type (%d)",
				trace.AccessType(ty), st.HitsByType[ty], st.AccessesByType[ty])
		}
	}
	if byType != st.Accesses {
		s.violate(a, "per-type access counts sum to %d, want %d", byType, st.Accesses)
	}
	if st.Bypasses > st.Misses {
		s.violate(a, "bypasses %d exceed misses %d", st.Bypasses, st.Misses)
	}
	// Every miss resolves exactly one way: a fill into an invalid way, a
	// bypass, or a fill that evicts a valid line.
	if st.Evictions+st.Bypasses+st.InvalidFills != st.Misses {
		s.violate(a, "evictions %d + bypasses %d + invalid-way fills %d != misses %d",
			st.Evictions, st.Bypasses, st.InvalidFills, st.Misses)
	}
	if st.DirtyEvictions > st.Evictions {
		s.violate(a, "dirty evictions %d exceed evictions %d", st.DirtyEvictions, st.Evictions)
	}

	// Policy-internal state (RRPV widths, SHCT saturation, PSEL range, …).
	if s.selfCheck != nil {
		if err := s.selfCheck.CheckInvariants(); err != nil {
			s.violate(a, "policy self-check: %v", err)
		}
	}
}
