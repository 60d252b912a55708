// Package machine models the state of a multi-trap QCCD trapped-ion machine:
// traps holding ordered ion chains, capacity accounting, and the physical
// primitives of paper Fig. 3 — intra-chain SWAP, SPLIT, MOVE, MERGE — plus
// gate execution. Every mutation is recorded in an operation trace that the
// simulator (internal/sim) replays for timing and fidelity, and that the
// evaluation harness inspects for shuttle counts.
//
// Terminology (paper Section II-B):
//   - total trap capacity: maximum ions a trap can hold (17 in the paper's
//     hardware model);
//   - communication capacity: slots deliberately left free at initial
//     mapping time (2 in the paper) to receive shuttled ions;
//   - excess capacity (EC): capacity minus current occupancy;
//   - a *shuttle* is one MOVE of an ion between adjacent traps (Fig. 7
//     counts a T4->T0 transfer on L6 as 4 shuttles).
package machine

import (
	"fmt"
	"math"
	"strings"

	"muzzle/internal/topo"
)

// Config describes the fixed hardware parameters of a machine.
type Config struct {
	// Topology is the trap interconnection graph.
	Topology *topo.Topology
	// Capacity is the total trap capacity (ions per trap).
	Capacity int
	// CommCapacity is the per-trap communication capacity reserved at
	// initial mapping time. It constrains initial placement only; during
	// execution a trap may fill to Capacity.
	CommCapacity int
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Topology == nil {
		return fmt.Errorf("machine: nil topology")
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("machine: non-positive capacity %d", c.Capacity)
	}
	if c.CommCapacity < 0 || c.CommCapacity >= c.Capacity {
		return fmt.Errorf("machine: communication capacity %d outside [0,%d)", c.CommCapacity, c.Capacity)
	}
	return nil
}

// MaxInitialLoad is the number of ions a trap may hold at initial mapping.
func (c Config) MaxInitialLoad() int { return c.Capacity - c.CommCapacity }

// PaperL6 returns the hardware model of the paper's evaluation
// (Section IV-A): 6 traps in a line, capacity 17, communication capacity 2.
func PaperL6() Config {
	return Config{Topology: topo.Linear(6), Capacity: 17, CommCapacity: 2}
}

// OpKind enumerates trace operations.
type OpKind uint8

const (
	// OpGate1Q is a single-qubit gate executed inside a trap.
	OpGate1Q OpKind = iota
	// OpGate2Q is a two-qubit gate executed inside a trap.
	OpGate2Q
	// OpSwap is one adjacent transposition inside a chain, used to bring an
	// ion to a chain edge before SPLIT (Fig. 3 step i).
	OpSwap
	// OpSplit detaches an ion from its chain prior to a MOVE.
	OpSplit
	// OpMove shuttles a split ion across one edge of the topology. Each
	// OpMove is one *shuttle* in the paper's accounting.
	OpMove
	// OpMerge attaches a moved ion to the destination trap's chain.
	OpMerge
	// OpMeasure is a measurement inside a trap.
	OpMeasure

	// numOpKinds bounds the OpKind enum for counter arrays.
	numOpKinds
)

// String returns the mnemonic used in traces.
func (k OpKind) String() string {
	switch k {
	case OpGate1Q:
		return "gate1q"
	case OpGate2Q:
		return "gate2q"
	case OpSwap:
		return "swap"
	case OpSplit:
		return "split"
	case OpMove:
		return "move"
	case OpMerge:
		return "merge"
	case OpMeasure:
		return "measure"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Mnemonic is a gate name interned in the closed table of native gates
// that record trace ops. The zero value is NoMnemonic, carried by shuttle
// ops.
type Mnemonic uint8

// The native gate mnemonics (barriers record no op, so they have none).
const (
	NoMnemonic Mnemonic = iota
	MnemonicR
	MnemonicRZ
	MnemonicMS
	MnemonicMeasure

	numMnemonics
)

// mnemonicNames is the mnemonic table, indexed by Mnemonic.
var mnemonicNames = [numMnemonics]string{"", "r", "rz", "ms", "measure"}

// ParseMnemonic interns a native gate name. A name outside the table is an
// error: the trace cannot name a gate the machine does not execute.
func ParseMnemonic(name string) (Mnemonic, error) {
	for m := NoMnemonic + 1; m < numMnemonics; m++ {
		if mnemonicNames[m] == name {
			return m, nil
		}
	}
	return NoMnemonic, fmt.Errorf("machine: gate %q has no trace mnemonic (native: r, rz, ms, measure)", name)
}

// String returns the gate name; NoMnemonic renders as "".
func (m Mnemonic) String() string {
	if m < numMnemonics {
		return mnemonicNames[m]
	}
	return fmt.Sprintf("Mnemonic(%d)", int(m))
}

// Op is one entry of the execution trace. It is 24 bytes and holds no
// pointers, so a trace is one flat allocation the garbage collector never
// scans. Ion, trap and gate ids are int32: a circuit or machine past 2^31
// of any of them is rejected before it reaches the trace.
type Op struct {
	Kind OpKind
	// Name is the gate mnemonic for gate ops; NoMnemonic for shuttle ops.
	Name Mnemonic
	// Ion is the primary ion operand (the moved/split/merged ion, the 1Q
	// gate target, or the first 2Q operand).
	Ion int32
	// Ion2 is the second 2Q operand or the swap partner; -1 otherwise.
	Ion2 int32
	// Trap is the trap where the op happens (for OpMove, the source trap).
	Trap int32
	// Trap2 is the destination trap for OpMove; -1 otherwise.
	Trap2 int32
	// Gate is the index of the source-circuit gate for gate ops; -1 for
	// shuttle ops.
	Gate int32
}

// String renders the op compactly.
func (o Op) String() string {
	switch o.Kind {
	case OpMove:
		return fmt.Sprintf("move ion%d T%d->T%d", o.Ion, o.Trap, o.Trap2)
	case OpSwap:
		return fmt.Sprintf("swap ion%d,ion%d T%d", o.Ion, o.Ion2, o.Trap)
	case OpGate2Q:
		return fmt.Sprintf("%s ion%d,ion%d T%d (g%d)", o.Name, o.Ion, o.Ion2, o.Trap, o.Gate)
	case OpGate1Q, OpMeasure:
		return fmt.Sprintf("%s ion%d T%d (g%d)", o.Name, o.Ion, o.Trap, o.Gate)
	default:
		return fmt.Sprintf("%s ion%d T%d", o.Kind, o.Ion, o.Trap)
	}
}

// State is the mutable machine state: which ion sits where, in what chain
// order, plus the accumulated operation trace.
type State struct {
	cfg      Config
	trapOf   []int   // ion -> trap id (-1 while in transit; never observable)
	posOf    []int   // ion -> index within its chain
	chains   [][]int // trap -> ordered ion chain
	ops      []Op
	counts   [numOpKinds]int // per-kind op tally, maintained on append
	shuttles int
}

// minTraceOps is the trace's first capacity (24 KiB of ops).
const minTraceOps = 1024

// record appends one op to the trace, keeping the per-kind counters in sync.
//
//muzzle:hotpath
func (s *State) record(o Op) {
	if len(s.ops) == cap(s.ops) {
		s.growOps()
	}
	s.ops = append(s.ops, o)
	s.counts[o.Kind]++
}

// growOps doubles the trace's capacity, so the blocks a trace allocates add
// up to less than twice its final capacity whatever the op count turns out
// to be. The runtime's own growth for large slices is 1.25×, which
// allocates several times the final trace.
func (s *State) growOps() {
	grown := make([]Op, len(s.ops), max(minTraceOps, 2*cap(s.ops)))
	copy(grown, s.ops)
	s.ops = grown
}

// NewState places ions into traps per placement (placement[t] lists the ions
// initially in trap t, in chain order) and validates capacities. The number
// of ions is inferred; ion ids must be dense 0..N-1.
func NewState(cfg Config, placement [][]int) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(placement) != cfg.Topology.NumTraps() {
		return nil, fmt.Errorf("machine: placement has %d traps, topology has %d", len(placement), cfg.Topology.NumTraps())
	}
	total := 0
	for t, chain := range placement {
		if len(chain) > cfg.MaxInitialLoad() {
			return nil, fmt.Errorf("machine: trap %d loaded with %d ions, exceeds initial load limit %d", t, len(chain), cfg.MaxInitialLoad())
		}
		total += len(chain)
	}
	if total > math.MaxInt32 || len(placement) > math.MaxInt32 {
		return nil, fmt.Errorf("machine: %d ions in %d traps exceed the trace's int32 ids", total, len(placement))
	}
	s := &State{
		cfg:    cfg,
		trapOf: make([]int, total),
		posOf:  make([]int, total),
		chains: make([][]int, len(placement)),
	}
	for i := range s.trapOf {
		s.trapOf[i] = -1
	}
	for t, chain := range placement {
		s.chains[t] = append([]int(nil), chain...)
		for p, ion := range chain {
			if ion < 0 || ion >= total {
				return nil, fmt.Errorf("machine: ion id %d not in dense range [0,%d)", ion, total)
			}
			if s.trapOf[ion] != -1 {
				return nil, fmt.Errorf("machine: ion %d placed twice", ion)
			}
			s.trapOf[ion] = t
			s.posOf[ion] = p
		}
	}
	return s, nil
}

// Config returns the machine configuration.
func (s *State) Config() Config { return s.cfg }

// NumIons returns the total ion count.
func (s *State) NumIons() int { return len(s.trapOf) }

// NumTraps returns the trap count.
func (s *State) NumTraps() int { return len(s.chains) }

// IonTrap returns the trap currently holding ion q.
func (s *State) IonTrap(q int) int { return s.trapOf[q] }

// IonPos returns ion q's index within its chain.
func (s *State) IonPos(q int) int { return s.posOf[q] }

// Chain returns the ordered ion chain of trap t. The returned slice must not
// be modified.
func (s *State) Chain(t int) []int { return s.chains[t] }

// Occupancy returns the number of ions in trap t.
func (s *State) Occupancy(t int) int { return len(s.chains[t]) }

// ExcessCapacity returns capacity minus occupancy for trap t (paper
// Section II-B1).
func (s *State) ExcessCapacity(t int) int { return s.cfg.Capacity - len(s.chains[t]) }

// IsFull reports whether trap t cannot accept another ion.
func (s *State) IsFull(t int) bool { return s.ExcessCapacity(t) <= 0 }

// Shuttles returns the number of MOVE operations performed so far — the
// paper's shuttle count.
func (s *State) Shuttles() int { return s.shuttles }

// Ops returns the trace. The returned slice must not be modified.
func (s *State) Ops() []Op { return s.ops }

// OpCount returns the number of trace ops of kind k. Counters are maintained
// incrementally on append, so the query is O(1) instead of a trace scan.
func (s *State) OpCount(k OpKind) int {
	if k >= numOpKinds {
		return 0
	}
	return s.counts[k]
}

// CoLocated reports whether two ions share a trap.
func (s *State) CoLocated(a, b int) bool { return s.trapOf[a] == s.trapOf[b] }

// ApplyGate1Q records a single-qubit gate (or measurement) on ion q. The
// name must be a native mnemonic (see ParseMnemonic).
func (s *State) ApplyGate1Q(name string, q, gateIdx int) error {
	m, err := ParseMnemonic(name)
	if err != nil {
		return err
	}
	kind := OpGate1Q
	if m == MnemonicMeasure {
		kind = OpMeasure
	}
	s.record(Op{Kind: kind, Name: m, Ion: int32(q), Ion2: -1, Trap: int32(s.trapOf[q]), Trap2: -1, Gate: int32(gateIdx)})
	return nil
}

// ApplyGate2Q records a two-qubit gate; the ions must be co-located and the
// name a native mnemonic.
func (s *State) ApplyGate2Q(name string, a, b, gateIdx int) error {
	m, err := ParseMnemonic(name)
	if err != nil {
		return err
	}
	if s.trapOf[a] != s.trapOf[b] {
		return fmt.Errorf("machine: 2Q gate %q on ions %d (T%d) and %d (T%d): not co-located", name, a, s.trapOf[a], b, s.trapOf[b])
	}
	s.record(Op{Kind: OpGate2Q, Name: m, Ion: int32(a), Ion2: int32(b), Trap: int32(s.trapOf[a]), Trap2: -1, Gate: int32(gateIdx)})
	return nil
}

// edgeIndex returns the chain index an ion must occupy to exit trap `from`
// toward adjacent trap `to`: the high end if to > from, else the low end.
// This convention is arbitrary but consistent for merge (an ion entering
// from a lower-numbered trap lands at the low end, and vice versa).
func (s *State) edgeIndex(from, to int) int {
	if to > from {
		return len(s.chains[from]) - 1
	}
	return 0
}

// swapToEdge records the intra-chain swaps needed to bring ion q to the
// chain edge facing adjacent trap `to` (Fig. 3 step i).
func (s *State) swapToEdge(q, to int) {
	from := s.trapOf[q]
	target := s.edgeIndex(from, to)
	chain := s.chains[from]
	step := 1
	if target < s.posOf[q] {
		step = -1
	}
	for s.posOf[q] != target {
		p := s.posOf[q]
		other := chain[p+step]
		chain[p], chain[p+step] = chain[p+step], chain[p]
		s.posOf[q] = p + step
		s.posOf[other] = p
		s.record(Op{Kind: OpSwap, Ion: int32(q), Ion2: int32(other), Trap: int32(from), Trap2: -1, Gate: -1})
	}
}

// Hop shuttles ion q from its current trap to the adjacent trap `to`,
// recording SWAP* SPLIT MOVE MERGE. It fails if the traps are not adjacent
// or the destination is full.
func (s *State) Hop(q, to int) error {
	from := s.trapOf[q]
	if from == to {
		return fmt.Errorf("machine: ion %d already in trap %d", q, to)
	}
	adjacent := false
	for _, nb := range s.cfg.Topology.Neighbors(from) {
		if nb == to {
			adjacent = true
			break
		}
	}
	if !adjacent {
		return fmt.Errorf("machine: traps %d and %d not adjacent", from, to)
	}
	if s.IsFull(to) {
		return fmt.Errorf("machine: trap %d full (capacity %d), cannot receive ion %d", to, s.cfg.Capacity, q)
	}
	s.swapToEdge(q, to)
	// SPLIT: remove from source chain.
	chain := s.chains[from]
	p := s.posOf[q]
	s.record(Op{Kind: OpSplit, Ion: int32(q), Ion2: -1, Trap: int32(from), Trap2: -1, Gate: -1})
	copy(chain[p:], chain[p+1:])
	s.chains[from] = chain[:len(chain)-1]
	for i := p; i < len(s.chains[from]); i++ {
		s.posOf[s.chains[from][i]] = i
	}
	// MOVE: one shuttle.
	s.record(Op{Kind: OpMove, Ion: int32(q), Ion2: -1, Trap: int32(from), Trap2: int32(to), Gate: -1})
	s.shuttles++
	// MERGE: insert at the edge facing the source.
	dst := s.chains[to]
	if from < to {
		// entering from the low side
		dst = append(dst, 0)
		copy(dst[1:], dst)
		dst[0] = q
		s.chains[to] = dst
		for i, ion := range dst {
			s.posOf[ion] = i
		}
	} else {
		s.chains[to] = append(dst, q)
		s.posOf[q] = len(s.chains[to]) - 1
	}
	s.trapOf[q] = to
	s.record(Op{Kind: OpMerge, Ion: int32(q), Ion2: -1, Trap: int32(to), Trap2: -1, Gate: -1})
	return nil
}

// Route shuttles ion q along the shortest topology path to trap dst,
// performing one Hop per edge. Every intermediate trap must have excess
// capacity; callers resolve traffic blocks (re-balancing) before routing.
func (s *State) Route(q, dst int) error {
	for s.trapOf[q] != dst {
		next := s.cfg.Topology.NextHop(s.trapOf[q], dst)
		if err := s.Hop(q, next); err != nil {
			return err
		}
	}
	return nil
}

// Teleport relocates ion q to trap `to` directly, without recording trace
// operations. It exists for trace replay (internal/sim), where the
// SPLIT/MOVE/MERGE accounting has already been charged and only occupancy
// bookkeeping is needed. Capacity is still enforced.
func (s *State) Teleport(q, to int) error {
	from := s.trapOf[q]
	if from == to {
		return nil
	}
	if s.IsFull(to) {
		return fmt.Errorf("machine: teleport of ion %d into full trap %d", q, to)
	}
	chain := s.chains[from]
	p := s.posOf[q]
	copy(chain[p:], chain[p+1:])
	s.chains[from] = chain[:len(chain)-1]
	for i := p; i < len(s.chains[from]); i++ {
		s.posOf[s.chains[from][i]] = i
	}
	s.chains[to] = append(s.chains[to], q)
	s.posOf[q] = len(s.chains[to]) - 1
	s.trapOf[q] = to
	return nil
}

// CheckInvariants verifies internal consistency: each ion in exactly one
// chain, position indices correct, occupancy within capacity. It is used by
// tests and can be called after compilation as a sanity gate.
func (s *State) CheckInvariants() error {
	seen := make([]bool, s.NumIons())
	for t, chain := range s.chains {
		if len(chain) > s.cfg.Capacity {
			return fmt.Errorf("machine: trap %d holds %d ions, capacity %d", t, len(chain), s.cfg.Capacity)
		}
		for p, ion := range chain {
			if ion < 0 || ion >= s.NumIons() {
				return fmt.Errorf("machine: trap %d contains invalid ion %d", t, ion)
			}
			if seen[ion] {
				return fmt.Errorf("machine: ion %d appears in multiple chains", ion)
			}
			seen[ion] = true
			if s.trapOf[ion] != t {
				return fmt.Errorf("machine: ion %d trapOf=%d but found in trap %d", ion, s.trapOf[ion], t)
			}
			if s.posOf[ion] != p {
				return fmt.Errorf("machine: ion %d posOf=%d but found at index %d", ion, s.posOf[ion], p)
			}
		}
	}
	for ion, ok := range seen {
		if !ok {
			return fmt.Errorf("machine: ion %d not in any chain", ion)
		}
	}
	return nil
}

// Snapshot returns a copy of the current placement (trap -> chain), usable
// to reconstruct an identical State.
func (s *State) Snapshot() [][]int {
	out := make([][]int, len(s.chains))
	for t, chain := range s.chains {
		out[t] = append([]int(nil), chain...)
	}
	return out
}

// Clone returns a deep copy of the state including its trace.
func (s *State) Clone() *State {
	c := &State{
		cfg:      s.cfg,
		trapOf:   append([]int(nil), s.trapOf...),
		posOf:    append([]int(nil), s.posOf...),
		chains:   s.Snapshot(),
		ops:      append([]Op(nil), s.ops...),
		counts:   s.counts,
		shuttles: s.shuttles,
	}
	return c
}

// String renders the trap occupancy like the paper's figures:
// "T0: [0 1 2] (EC=2) | T1: [3 4 5] (EC=1)".
func (s *State) String() string {
	var b strings.Builder
	for t, chain := range s.chains {
		if t > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "T%d: %v (EC=%d)", t, chain, s.ExcessCapacity(t))
	}
	return b.String()
}
