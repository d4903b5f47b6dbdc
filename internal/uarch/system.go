package uarch

import (
	"repro/internal/policy"
	"repro/internal/trace"
)

// InstrSource supplies an infinite instruction stream (workload generators
// satisfy it; SliceSource adapts a finite trace with wrap-around, the §V-A
// behaviour when a trace file is exhausted).
type InstrSource interface {
	Next() trace.Instr
}

// SliceSource replays a slice forever.
type SliceSource struct {
	ins []trace.Instr
	pos int
}

// NewSliceSource wraps a non-empty instruction slice. It panics on an
// empty slice.
func NewSliceSource(ins []trace.Instr) *SliceSource {
	if len(ins) == 0 {
		panic("uarch: empty instruction slice")
	}
	return &SliceSource{ins: ins}
}

// Next implements InstrSource.
func (s *SliceSource) Next() trace.Instr {
	i := s.ins[s.pos]
	s.pos++
	if s.pos == len(s.ins) {
		s.pos = 0
	}
	return i
}

// coreState is the analytic out-of-order window model for one core: issue
// is bounded by width and ROB occupancy; loads complete at their memory
// completion time; dependent loads serialize on the previous load;
// retirement is in order. IPC falls out of the retire time of the last
// instruction.
type coreState struct {
	width      uint64
	robSize    int
	retire     []uint64 // ring of retirement times
	issued     uint64   // instructions issued
	lastRetire uint64
	lastLoad   uint64 // completion time of the most recent load
	fetchBlock uint64
	instrs     uint64 // retired instructions (measurement window)
	startCycle uint64 // cycle at measurement start
}

func newCoreState(width, rob int) *coreState {
	return &coreState{
		width:   uint64(width),
		robSize: rob,
		retire:  make([]uint64, rob),
		// No block fetched yet: an impossible sentinel, so the first
		// instruction pays its fetch even when PC>>6 == 0.
		fetchBlock: ^uint64(0),
	}
}

// now returns the core's current notion of time (the last retirement).
func (c *coreState) now() uint64 { return c.lastRetire }

// step executes one instruction against the hierarchy and returns nothing;
// all effects land in the core and cache state.
func (c *coreState) step(h *Hierarchy, core int, ins trace.Instr) {
	// Issue constraint 1: width instructions per cycle.
	issue := c.issued / c.width
	// Issue constraint 2: the ROB must have a free slot.
	if c.issued >= uint64(c.robSize) {
		if r := c.retire[c.issued%uint64(c.robSize)]; r > issue {
			issue = r
		}
	}
	// Front end: an instruction-fetch miss stalls issue by its extra
	// latency beyond a pipelined L1I hit.
	if blk := ins.PC >> 6; blk != c.fetchBlock {
		c.fetchBlock = blk
		done := h.AccessInstr(core, ins.PC, issue)
		// Guard against unsigned wrap: a fetch merging into an in-flight
		// miss can complete less than L1ILatency cycles from now.
		if done > issue+h.cfg.L1ILatency {
			issue = done - h.cfg.L1ILatency
		}
	}
	// Dependent loads wait for the previous load's data.
	if ins.Kind == trace.MemLoadDep && c.lastLoad > issue {
		issue = c.lastLoad
	}

	var complete uint64
	switch ins.Kind {
	case trace.MemLoad, trace.MemLoadDep:
		complete = h.AccessData(core, ins.PC, ins.Addr, false, issue)
		c.lastLoad = complete
	case trace.MemStore:
		// Stores retire once issued (they drain from the store buffer);
		// the RFO still perturbs the caches.
		h.AccessData(core, ins.PC, ins.Addr, true, issue)
		complete = issue + 1
	default:
		complete = issue + 1
	}

	// In-order retirement.
	if complete < c.lastRetire {
		complete = c.lastRetire
	}
	c.retire[c.issued%uint64(c.robSize)] = complete
	c.lastRetire = complete
	c.issued++
	c.instrs++
}

// Result reports one core's measured performance.
type Result struct {
	Instructions uint64
	Cycles       uint64
	LLCStats     LLCStats // shared-LLC totals at end of run (same for all cores)
	// DemandMPKI is this run's LLC demand misses per kilo-instruction
	// aggregated over all cores.
	DemandMPKI float64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// System couples cores to a hierarchy and runs instruction streams.
type System struct {
	cfg   Config
	h     *Hierarchy
	cores []*coreState
}

// NewSystem builds a system with the given LLC replacement policy (nil
// selects LRU).
func NewSystem(cfg Config, pol policy.Policy) *System {
	h := NewHierarchy(cfg, pol)
	s := &System{cfg: cfg, h: h}
	for i := 0; i < cfg.Cores; i++ {
		s.cores = append(s.cores, newCoreState(cfg.IssueWidth, cfg.ROBSize))
	}
	return s
}

// Hierarchy exposes the memory system (for observers and KPC-P wiring).
func (s *System) Hierarchy() *Hierarchy { return s.h }

// RunSingle drives core 0 for warmup+measure instructions from src and
// returns the measured-window result. Statistics (LLC and core) cover only
// the measurement window.
func (s *System) RunSingle(src InstrSource, warmup, measure uint64) Result {
	c := s.cores[0]
	for i := uint64(0); i < warmup; i++ {
		c.step(s.h, 0, src.Next())
	}
	startCycles := c.lastRetire
	startStats := s.h.stats
	for i := uint64(0); i < measure; i++ {
		c.step(s.h, 0, src.Next())
	}
	st := diffStats(s.h.stats, startStats)
	return Result{
		Instructions: measure,
		Cycles:       c.lastRetire - startCycles,
		LLCStats:     st,
		DemandMPKI:   1000 * float64(st.DemandMisses) / float64(measure),
	}
}

// RunMulti drives all cores, each from its own source, for warmup+measure
// instructions per core, interleaved one instruction at a time: the next
// core to step is the one with the smallest (local time, last-stepped)
// pair, where last-stepped orders cores by when they last executed and
// starts each phase in core-index order. Equal local times therefore go
// round-robin, and the LLC sees the cores' access streams merged in time
// order. Results are per core; LLCStats and DemandMPKI in each entry cover
// the whole measurement window across cores.
func (s *System) RunMulti(srcs []InstrSource, warmup, measure uint64) []Result {
	if len(srcs) != len(s.cores) {
		panic("uarch: RunMulti needs one source per core")
	}
	n := len(s.cores)
	remaining := make([]uint64, n)
	stepped := make([]uint64, n)
	runPhase := func(count uint64) {
		for i := range remaining {
			remaining[i], stepped[i] = count, uint64(i)
		}
		for seq := uint64(n); ; seq++ {
			best := -1
			for i, c := range s.cores {
				if remaining[i] == 0 {
					continue
				}
				if best == -1 || c.now() < s.cores[best].now() ||
					c.now() == s.cores[best].now() && stepped[i] < stepped[best] {
					best = i
				}
			}
			if best == -1 {
				return
			}
			s.cores[best].step(s.h, best, srcs[best].Next())
			remaining[best]--
			stepped[best] = seq
		}
	}
	runPhase(warmup)
	startCycles := make([]uint64, n)
	for i, c := range s.cores {
		startCycles[i] = c.lastRetire
	}
	startStats := s.h.stats
	runPhase(measure)
	st := diffStats(s.h.stats, startStats)
	out := make([]Result, n)
	for i, c := range s.cores {
		out[i] = Result{
			Instructions: measure,
			Cycles:       c.lastRetire - startCycles[i],
			LLCStats:     st,
			DemandMPKI:   1000 * float64(st.DemandMisses) / float64(measure*uint64(n)),
		}
	}
	return out
}

func diffStats(a, b LLCStats) LLCStats {
	var d LLCStats
	d.Accesses = a.Accesses - b.Accesses
	d.Hits = a.Hits - b.Hits
	d.DemandHits = a.DemandHits - b.DemandHits
	d.DemandMisses = a.DemandMisses - b.DemandMisses
	for i := range d.ByType {
		d.ByType[i] = a.ByType[i] - b.ByType[i]
		d.HitsByType[i] = a.HitsByType[i] - b.HitsByType[i]
	}
	return d
}
