// Package workload generates the synthetic instruction streams that drive
// the simulator. The paper evaluates PaCo on SPEC2000 INT binaries run
// under an execution-driven MIPS simulator; this repo has no SPEC binaries
// or MIPS toolchain, so each benchmark is modeled as a synthetic program —
// a basic-block control-flow graph whose static conditional branches draw
// outcomes from behavioural generators (biased, loop, pattern,
// history-correlated, noisy, random), plus calls, returns and indirect
// jumps, memory access streams over a configurable working set, data
// dependence distances, and phase schedules.
//
// The models are tuned so the real tournament predictor's conditional
// mispredict rates land in the bands of the paper's Table 7, and so the
// per-benchmark quirks the paper calls out are present: gcc's short phases,
// gap's globally clustered mispredicts, perlbmk's single hot indirect call
// that the JRS table cannot see, twolf/vpr's high mispredict rates and
// vortex's near-zero one.
package workload

// Kind classifies a dynamic instruction.
type Kind uint8

// Instruction kinds. KindBranch is a conditional branch — the only kind
// the JRS confidence table covers.
const (
	KindALU Kind = iota
	KindLoad
	KindStore
	KindBranch   // conditional branch
	KindJump     // unconditional direct jump
	KindCall     // direct call (pushes return address)
	KindReturn   // return (pops return address)
	KindIndirect // indirect jump/call through a register
	numKinds
)

// String returns the kind's mnemonic.
func (k Kind) String() string {
	switch k {
	case KindALU:
		return "alu"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	case KindJump:
		return "jump"
	case KindCall:
		return "call"
	case KindReturn:
		return "return"
	case KindIndirect:
		return "indirect"
	default:
		return "unknown"
	}
}

// IsControl reports whether the kind redirects fetch.
func (k Kind) IsControl() bool { return k >= KindBranch }

// Instruction is one dynamic instruction produced by a Walker (goodpath) or
// WrongPath generator (badpath). It is 48 bytes, written once into the
// consumer's slot (see Walker.NextInto): the kernel fetches one per
// simulated instruction, so its size is per-instruction memory traffic.
type Instruction struct {
	// PC is the instruction address.
	PC uint64
	// NextPC is the actual next instruction address (target if taken,
	// fall-through otherwise; targets for jumps/calls/returns/indirect).
	NextPC uint64
	// AltPC is, for conditional branches, the address fetch follows when
	// the direction is mispredicted (the other side of the branch).
	AltPC uint64
	// Addr is the effective address of a load or store.
	Addr uint64
	// Dep1 and Dep2 are data dependence distances: this instruction reads
	// the results of the instructions Dep1 and Dep2 dynamic instructions
	// earlier. Zero means no dependence.
	Dep1, Dep2 int32
	// StaticID identifies the static conditional branch (-1 otherwise);
	// used by diagnostics and tests.
	StaticID int32
	// Lat is the base execution latency in cycles (memory adds cache
	// latency on top).
	Lat uint8
	// Kind classifies the instruction.
	Kind Kind
	// Taken is the actual direction of a conditional branch.
	Taken bool
}
