// Package trace defines the access-trace records that flow through both
// simulators and the one on-disk format for access traces, the chunked
// container (chunked.go).
//
// The paper's methodology (§III-A) generates LLC access traces with ChampSim
// and replays them in an LLC-only simulator for RL training and Belady; the
// timing simulator instead consumes instruction-level traces. This package
// provides both record kinds:
//
//   - Access: one LLC reference, the ⟨PC, Access Type, Address⟩ record of
//     §III-A, extended with the issuing core id for multicore runs.
//   - Instr: one retired instruction for the timing model — a PC, an
//     optional memory operand, and the memory operation kind.
package trace

import "fmt"

// AccessType categorizes an LLC reference, matching the four types the
// paper's trace format records: load, request-for-ownership (store miss),
// prefetch, and writeback.
type AccessType uint8

// The four LLC access types of §III-A.
const (
	Load AccessType = iota
	RFO
	Prefetch
	Writeback
	NumAccessTypes = 4
)

// String returns the short name the paper uses for the access type.
func (t AccessType) String() string {
	switch t {
	case Load:
		return "LD"
	case RFO:
		return "RFO"
	case Prefetch:
		return "PF"
	case Writeback:
		return "WB"
	default:
		return fmt.Sprintf("AccessType(%d)", uint8(t))
	}
}

// IsDemand reports whether the access is a demand request (load or RFO) as
// opposed to a prefetch or writeback. Demand hits are what RLR's RD
// predictor and the multicore core-priority counters train on.
func (t AccessType) IsDemand() bool { return t == Load || t == RFO }

// Access is a single LLC reference.
type Access struct {
	PC   uint64     // program counter of the instruction (0 for writebacks)
	Addr uint64     // byte address accessed
	Type AccessType // LD, RFO, PF, or WB
	Core uint8      // issuing core id (0 in single-core traces)
}

// MemKind classifies an instruction's memory behaviour for the timing model.
type MemKind uint8

// Instruction memory-operation kinds.
const (
	MemNone    MemKind = iota // no memory operand
	MemLoad                   // data load
	MemStore                  // data store (becomes an RFO on miss)
	MemLoadDep                // load whose address depends on the previous load (pointer chase)
)

// Instr is one retired instruction in a CPU trace.
type Instr struct {
	PC   uint64
	Addr uint64 // memory operand address; meaningful only when Kind != MemNone
	Kind MemKind
}
