package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mathx"
)

// Overhead describes the storage cost of a replacement policy for a given
// cache geometry, reproducing Table I.
type Overhead struct {
	Policy string
	UsesPC bool
	// Bits is the total metadata storage in bits. For policies whose
	// internals this repository implements, Bits is computed from first
	// principles; for the two policies the paper only cites (MPPPB,
	// Glider), Bits carries the paper's reported figure and FromPaper is
	// set.
	Bits      uint64
	FromPaper bool
}

// KB returns the overhead in kilobytes (1KB = 8192 bits, i.e. 1024 bytes).
func (o Overhead) KB() float64 { return float64(o.Bits) / 8192 }

// PolicyOverhead computes the Table I storage overhead of the named policy
// for a cache of geometry cfg. Unknown names return an error.
func PolicyOverhead(name string, cfg cache.Config) (Overhead, error) {
	lines := uint64(cfg.Sets) * uint64(cfg.Ways)
	sets := uint64(cfg.Sets)
	recencyBits := uint64(mathx.CeilLog2(uint64(cfg.Ways)))

	switch name {
	case "lru":
		// log2(ways) recency bits per line: 4b × 32K lines = 16KB at 2MB/16w.
		return Overhead{Policy: "lru", Bits: lines * recencyBits}, nil
	case "srrip", "brrip":
		return Overhead{Policy: name, Bits: lines * 2}, nil
	case "drrip":
		// 2-bit RRPV per line + 10-bit PSEL.
		return Overhead{Policy: "drrip", Bits: lines*2 + 10}, nil
	case "kpc-r":
		// 2-bit RRPV per line + two 12-bit global counters + per-set leader
		// tagging is positional (free). The paper reports 8.57KB for full
		// KPC including prefetcher tables; the replacement half is ~8KB.
		return Overhead{Policy: "kpc-r", Bits: lines*2 + 2*12}, nil
	case "ship":
		// 2-bit RRPV per line + 16K-entry 3-bit SHCT + signature/outcome
		// storage on 64 sampled sets only (the SHiP paper's configuration,
		// which is how Table I reaches 14KB rather than a per-line cost).
		sampled := uint64(64) * uint64(cfg.Ways) * (14 + 1)
		return Overhead{Policy: "ship", UsesPC: true,
			Bits: lines*2 + shctEntries*3 + sampled}, nil
	case "ship++":
		// SHiP plus a second (prefetch) SHCT.
		sampled := uint64(64) * uint64(cfg.Ways) * (14 + 1)
		return Overhead{Policy: "ship++", UsesPC: true,
			Bits: lines*2 + 2*shctEntries*3 + sampled}, nil
	case "hawkeye":
		// 3-bit RRIP per line + 8K×3b predictor + OPTgen sampler on 64
		// sets (compressed tag + PC signature per history entry).
		sampler := uint64(hkSampleSets) * uint64(cfg.Ways*hkHistoryMult) * 13
		return Overhead{Policy: "hawkeye", UsesPC: true,
			Bits: lines*3 + hkPredEntries*3 + sampler}, nil
	case "rlr":
		// §IV-C: 2-bit age + 1-bit hit + 1-bit type per line, 3-bit counter
		// per set → 16.75KB for 2MB 16-way.
		return Overhead{Policy: "rlr", Bits: lines*(2+1+1) + sets*3}, nil
	case "rlr-unopt":
		// §V-B: 10 bits per line → 40KB for 2MB 16-way.
		return Overhead{Policy: "rlr-unopt", Bits: lines * 10}, nil
	case "rlr-mc":
		// RLR plus 12-bit demand-hit counters and 2-bit priorities for 4
		// cores.
		return Overhead{Policy: "rlr-mc", Bits: lines*(2+1+1) + sets*3 + 4*(12+2)}, nil
	case "pdp":
		// Per-line distance counter (8b) + RD monitor.
		return Overhead{Policy: "pdp", Bits: lines*8 + 256*16}, nil
	case "eva":
		// Per-line age (8b) + per-age counters.
		return Overhead{Policy: "eva", Bits: lines*8 + 256*2*16}, nil
	case "mpppb":
		return Overhead{Policy: "mpppb", UsesPC: true, Bits: 28 * 8192, FromPaper: true}, nil
	case "glider":
		return Overhead{Policy: "glider", UsesPC: true, Bits: 61600 * 8192 / 1000, FromPaper: true}, nil
	default:
		return Overhead{}, fmt.Errorf("core: no overhead model for policy %q", name)
	}
}

// TableOne returns the Table I rows, in the paper's order, for the given
// geometry.
func TableOne(cfg cache.Config) []Overhead {
	names := []string{"lru", "drrip", "kpc-r", "mpppb", "ship", "ship++", "hawkeye", "glider", "rlr", "rlr-unopt"}
	out := make([]Overhead, len(names))
	for i, n := range names {
		o, err := PolicyOverhead(n, cfg)
		if err != nil {
			panic(err) // every Table I policy has a model
		}
		out[i] = o
	}
	return out
}

// shctEntries etc. are duplicated here from internal/policy deliberately:
// the overhead model documents the hardware budget independently of the
// simulator implementation.
const (
	shctEntries   = 1 << 14
	hkSampleSets  = 64
	hkPredEntries = 1 << 13
	hkHistoryMult = 8
)
