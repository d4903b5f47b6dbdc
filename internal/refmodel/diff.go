package refmodel

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Pair binds a production policy to its reference model. Both factories
// receive the full trace because the Belady pair needs it (the production
// side to build its oracle, the reference side to scan forward); the other
// pairs ignore it.
type Pair struct {
	Name string
	// New builds the production policy exactly as experiments run it —
	// registered names come from the registry (with their registry seeds),
	// Belady from an oracle over the trace.
	New func(tr []trace.Access, cfg cache.Config) policy.Policy
	// Ref builds the matching reference model.
	Ref func(tr []trace.Access, cfg cache.Config) Model
	// MaxN caps the trace length the sweep feeds this pair; 0 means no cap.
	// The Belady reference is O(n²) by design, so its pairs stay short.
	MaxN int
}

func registryPair(name string, ref func() Model) Pair {
	return Pair{
		Name: name,
		New:  func(_ []trace.Access, _ cache.Config) policy.Policy { return policy.MustNew(name) },
		Ref:  func(_ []trace.Access, _ cache.Config) Model { return ref() },
	}
}

// Registry seeds: the named constructors in internal/policy's init funcs
// seed random=1, brrip=2, drrip=3. The references must consume identical
// PRNG streams, so the seeds are restated here; a drift would surface
// immediately as a divergence on any trace that misses.
const (
	randomSeed = 1
	brripSeed  = 2
	drripSeed  = 3
)

// Pairs returns every production policy that has a reference model. The
// differential sweep (cmd/check, FuzzDifferentialPolicy) runs all of them.
func Pairs() []Pair {
	return []Pair{
		registryPair("lru", NewLRU),
		registryPair("mru", NewMRU),
		registryPair("random", func() Model { return NewRandom(randomSeed) }),
		registryPair("srrip", NewSRRIP),
		registryPair("brrip", func() Model { return NewBRRIP(brripSeed) }),
		registryPair("drrip", func() Model { return NewDRRIP(drripSeed) }),
		registryPair("ship", NewSHiP),
		{
			Name: "belady",
			New: func(tr []trace.Access, cfg cache.Config) policy.Policy {
				return policy.NewBelady(policy.NewOracle(tr, cfg.LineSize))
			},
			Ref: func(tr []trace.Access, _ cache.Config) Model {
				return NewBelady(tr, false)
			},
			MaxN: 800,
		},
		{
			Name: "belady-bypass",
			New: func(tr []trace.Access, cfg cache.Config) policy.Policy {
				return policy.NewBeladyBypass(policy.NewOracle(tr, cfg.LineSize))
			},
			Ref: func(tr []trace.Access, _ cache.Config) Model {
				return NewBelady(tr, true)
			},
			MaxN: 800,
		},
		registryPair("rlr", func() Model { return NewRLR("rlr", true, true) }),
		registryPair("rlr-unopt", func() Model { return NewRLR("rlr-unopt", false, true) }),
		{
			// The §V-B ablation without the hit priority.
			Name: "rlr-nohit",
			New: func(_ []trace.Access, _ cache.Config) policy.Policy {
				o := core.Optimized()
				o.UseHitPriority = false
				return core.New(o)
			},
			Ref: func(_ []trace.Access, _ cache.Config) Model {
				return NewRLR("rlr-nohit", true, false)
			},
		},
	}
}

// PairByName returns the named pair, or false.
func PairByName(name string) (Pair, bool) {
	for _, p := range Pairs() {
		if p.Name == name {
			return p, true
		}
	}
	return Pair{}, false
}

// Divergence records the first access at which production and reference
// disagreed, with everything needed to replay it: the policy, the cache
// geometry, and the trace prefix through the diverging access.
type Divergence struct {
	Pair     string
	Cfg      cache.Config
	Accesses []trace.Access // trace through the diverging access (inclusive)
	Seq      int            // index of the diverging access == len(Accesses)-1
	Got      Step           // production
	Want     Step           // reference
	Reason   string         // "hit", "way", "bypass", or "invariant: ..."
}

// Diff replays accesses lock-step through the production simulator (with
// invariant checking on) and the pair's reference model, and returns the
// first divergence, or nil when they agree end to end. An invariant
// violation raised by the production simulator is reported as a divergence
// at the access that triggered it.
func Diff(p Pair, cfg cache.Config, accesses []trace.Access) (d *Divergence) {
	if p.MaxN > 0 && len(accesses) > p.MaxN {
		accesses = accesses[:p.MaxN]
	}
	sim := cachesim.New(cfg, 1, p.New(accesses, cfg))
	sim.EnableInvariants()
	ref := p.Ref(accesses, cfg)
	ref.Reset(cfg)

	diverge := func(i int, got, want Step, reason string) *Divergence {
		return &Divergence{
			Pair:     p.Name,
			Cfg:      cfg,
			Accesses: accesses[:i+1],
			Seq:      i,
			Got:      got,
			Want:     want,
			Reason:   reason,
		}
	}

	for i, a := range accesses {
		var got Step
		func() {
			defer func() {
				if r := recover(); r != nil {
					if iv, ok := r.(*cachesim.InvariantViolation); ok {
						d = diverge(i, Step{}, Step{}, "invariant: "+iv.Reason)
						return
					}
					panic(r)
				}
			}()
			res := sim.Step(a)
			got = Step{Hit: res.Hit, Way: res.Way, Bypassed: res.Bypassed}
		}()
		if d != nil {
			return d
		}
		want := ref.Access(a)
		switch {
		case got.Hit != want.Hit:
			return diverge(i, got, want, "hit")
		case got.Bypassed != want.Bypassed:
			return diverge(i, got, want, "bypass")
		case got.Way != want.Way:
			return diverge(i, got, want, "way")
		}
	}
	return nil
}

// Shrink minimizes a diverging trace: starting from the divergence's own
// prefix, it greedily deletes chunks (halving the chunk size down to single
// accesses) as long as the pair still diverges, then re-runs Diff once more
// to rebuild an accurate Divergence for the minimal trace. The result is
// what gets printed as the counterexample.
func Shrink(p Pair, d *Divergence) *Divergence {
	cur := append([]trace.Access(nil), d.Accesses...)
	fails := func(tr []trace.Access) *Divergence { return Diff(p, d.Cfg, tr) }
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			cand := make([]trace.Access, 0, len(cur)-chunk)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+chunk:]...)
			if fails(cand) != nil {
				cur = cand
			} else {
				start += chunk
			}
		}
	}
	if min := fails(cur); min != nil {
		return min
	}
	return d // cannot happen: cur always still diverges
}

// String formats the divergence as a replayable counterexample: a header
// with the pair and geometry, the disagreement, and the access list in the
// `TYPE pc addr [core]` form ParseCounterexample reads back.
func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# refmodel counterexample: pair=%s sets=%d ways=%d linesize=%d\n",
		d.Pair, d.Cfg.Sets, d.Cfg.Ways, d.Cfg.LineSize)
	if strings.HasPrefix(d.Reason, "invariant") {
		fmt.Fprintf(&b, "# diverged at access %d: %s\n", d.Seq, d.Reason)
	} else {
		fmt.Fprintf(&b, "# diverged at access %d on %s: production %s, reference %s\n",
			d.Seq, d.Reason, d.Got, d.Want)
	}
	for _, a := range d.Accesses {
		fmt.Fprintf(&b, "%s %#x %#x %d\n", a.Type, a.PC, a.Addr, a.Core)
	}
	return b.String()
}

// String renders a Step for divergence messages.
func (s Step) String() string {
	switch {
	case s.Hit:
		return fmt.Sprintf("hit@way%d", s.Way)
	case s.Bypassed:
		return "bypass"
	default:
		return fmt.Sprintf("fill@way%d", s.Way)
	}
}

// Counterexample is a parsed replayable counterexample.
type Counterexample struct {
	Pair     string
	Cfg      cache.Config
	Accesses []trace.Access
}

// ParseCounterexample reads the format produced by Divergence.String: a
// `# refmodel counterexample:` header carrying pair and geometry, further
// `#` comment lines (ignored), and one access per line as
// `TYPE pc addr [core]` with LD/RFO/PF/WB type names and 0x-prefixed or
// decimal numbers.
func ParseCounterexample(r io.Reader) (Counterexample, error) {
	var ce Counterexample
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# refmodel counterexample:"); ok {
				if err := ce.parseHeader(rest); err != nil {
					return ce, fmt.Errorf("line %d: %w", lineNo, err)
				}
			}
			continue
		}
		a, err := parseAccessLine(line)
		if err != nil {
			return ce, fmt.Errorf("line %d: %w", lineNo, err)
		}
		ce.Accesses = append(ce.Accesses, a)
	}
	if err := sc.Err(); err != nil {
		return ce, err
	}
	if ce.Pair == "" {
		return ce, fmt.Errorf("refmodel: missing '# refmodel counterexample:' header")
	}
	return ce, nil
}

func (ce *Counterexample) parseHeader(rest string) error {
	for _, kv := range strings.Fields(rest) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("refmodel: bad header field %q", kv)
		}
		switch k {
		case "pair":
			ce.Pair = v
		case "sets", "ways", "linesize":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("refmodel: bad header field %q: %v", kv, err)
			}
			switch k {
			case "sets":
				ce.Cfg.Sets = n
			case "ways":
				ce.Cfg.Ways = n
			case "linesize":
				ce.Cfg.LineSize = uint64(n)
			}
		default:
			return fmt.Errorf("refmodel: unknown header field %q", kv)
		}
	}
	return nil
}

func parseAccessLine(line string) (trace.Access, error) {
	var a trace.Access
	f := strings.Fields(line)
	if len(f) < 3 || len(f) > 4 {
		return a, fmt.Errorf("refmodel: want 'TYPE pc addr [core]', got %q", line)
	}
	switch f[0] {
	case "LD":
		a.Type = trace.Load
	case "RFO":
		a.Type = trace.RFO
	case "PF":
		a.Type = trace.Prefetch
	case "WB":
		a.Type = trace.Writeback
	default:
		return a, fmt.Errorf("refmodel: unknown access type %q", f[0])
	}
	pc, err := strconv.ParseUint(f[1], 0, 64)
	if err != nil {
		return a, fmt.Errorf("refmodel: bad pc %q: %v", f[1], err)
	}
	addr, err := strconv.ParseUint(f[2], 0, 64)
	if err != nil {
		return a, fmt.Errorf("refmodel: bad addr %q: %v", f[2], err)
	}
	a.PC, a.Addr = pc, addr
	if len(f) == 4 {
		core, err := strconv.ParseUint(f[3], 0, 8)
		if err != nil {
			return a, fmt.Errorf("refmodel: bad core %q: %v", f[3], err)
		}
		a.Core = uint8(core)
	}
	return a, nil
}
