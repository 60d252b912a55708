package machine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"muzzle/internal/topo"
)

// twoTrapCfg mirrors paper Fig. 1: 2 traps, total capacity 4,
// communication capacity 1.
func twoTrapCfg() Config {
	return Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
}

func mustState(t *testing.T, cfg Config, placement [][]int) *State {
	t.Helper()
	s, err := NewState(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExampleTwoTrap pins Fig. 1's excess-capacity arithmetic: capacity 4,
// 3 ions in T0 and 3 in T1 -> EC 1 each; after one leaves T1, EC(T1)=2.
func TestExampleTwoTrap(t *testing.T) {
	s := mustState(t, twoTrapCfg(), [][]int{{0, 1, 2}, {3, 4, 5}})
	if ec := s.ExcessCapacity(0); ec != 1 {
		t.Errorf("EC(T0) = %d, want 1", ec)
	}
	if ec := s.ExcessCapacity(1); ec != 1 {
		t.Errorf("EC(T1) = %d, want 1", ec)
	}
	if err := s.Hop(3, 0); err != nil {
		t.Fatal(err)
	}
	if ec := s.ExcessCapacity(1); ec != 2 {
		t.Errorf("EC(T1) after departure = %d, want 2", ec)
	}
	if ec := s.ExcessCapacity(0); ec != 0 {
		t.Errorf("EC(T0) after arrival = %d, want 0", ec)
	}
}

func TestPaperL6Config(t *testing.T) {
	cfg := PaperL6()
	if cfg.Topology.NumTraps() != 6 || cfg.Capacity != 17 || cfg.CommCapacity != 2 {
		t.Fatalf("PaperL6 = %+v", cfg)
	}
	if cfg.MaxInitialLoad() != 15 {
		t.Errorf("MaxInitialLoad = %d, want 15", cfg.MaxInitialLoad())
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("nil topology accepted")
	}
	if err := (Config{Topology: topo.Linear(2), Capacity: 0}).Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := (Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 4}).Validate(); err == nil {
		t.Error("comm capacity == capacity accepted")
	}
	if err := (Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: -1}).Validate(); err == nil {
		t.Error("negative comm capacity accepted")
	}
}

func TestNewStateValidation(t *testing.T) {
	cfg := twoTrapCfg()
	if _, err := NewState(cfg, [][]int{{0, 1}}); err == nil {
		t.Error("wrong trap count accepted")
	}
	if _, err := NewState(cfg, [][]int{{0, 1, 2, 3}, {4}}); err == nil {
		t.Error("initial load above capacity-comm accepted")
	}
	if _, err := NewState(cfg, [][]int{{0, 0}, {1}}); err == nil {
		t.Error("duplicate ion accepted")
	}
	if _, err := NewState(cfg, [][]int{{0, 7}, {1}}); err == nil {
		t.Error("non-dense ion id accepted")
	}
}

// TestFigure3ShuttleSteps pins the shuttle sequence of paper Fig. 3:
// executing MS q[2],q[3] with T0=[0 1 2], T1=[3 4 5] requires
// SPLIT q2, MOVE q2, MERGE q2 and then the gate — ion 2 is already at the
// chain edge so no SWAP is needed.
func TestFigure3ShuttleSteps(t *testing.T) {
	s := mustState(t, twoTrapCfg(), [][]int{{0, 1, 2}, {3, 4, 5}})
	if err := s.Hop(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyGate2Q("ms", 2, 3, 1); err != nil {
		t.Fatal(err)
	}
	var kinds []OpKind
	for _, op := range s.Ops() {
		kinds = append(kinds, op.Kind)
	}
	want := []OpKind{OpSplit, OpMove, OpMerge, OpGate2Q}
	if len(kinds) != len(want) {
		t.Fatalf("ops = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("ops = %v, want %v", kinds, want)
		}
	}
	// Ion 2 entered T1 from the low-numbered side: chain must be [2 3 4 5].
	chain := s.Chain(1)
	if len(chain) != 4 || chain[0] != 2 {
		t.Errorf("T1 chain = %v, want [2 3 4 5]", chain)
	}
	if s.Shuttles() != 1 {
		t.Errorf("shuttles = %d, want 1", s.Shuttles())
	}
}

// TestFigure3SwapFirst pins the general case of Fig. 3: shuttling an ion
// from the middle of a chain requires SWAPs to the edge first.
func TestFigure3SwapFirst(t *testing.T) {
	s := mustState(t, twoTrapCfg(), [][]int{{0, 1, 2}, {3, 4, 5}})
	// Ion 0 sits at the far edge; moving it right needs 2 swaps.
	if err := s.Hop(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.OpCount(OpSwap); got != 2 {
		t.Errorf("swaps = %d, want 2", got)
	}
	if got := s.Chain(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("T0 chain = %v, want [1 2]", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHopRejectsFullTrap(t *testing.T) {
	cfg := twoTrapCfg()
	s := mustState(t, cfg, [][]int{{0, 1, 2}, {3, 4, 5}})
	if err := s.Hop(2, 1); err != nil {
		t.Fatal(err)
	}
	// T1 now has 4 ions = capacity; another hop must fail.
	if err := s.Hop(1, 1); err == nil {
		t.Fatal("hop into full trap accepted")
	}
}

func TestHopRejectsNonAdjacent(t *testing.T) {
	cfg := Config{Topology: topo.Linear(3), Capacity: 4, CommCapacity: 1}
	s := mustState(t, cfg, [][]int{{0}, {1}, {2}})
	if err := s.Hop(0, 2); err == nil {
		t.Fatal("non-adjacent hop accepted")
	}
	if err := s.Hop(0, 0); err == nil {
		t.Fatal("self hop accepted")
	}
}

func TestRouteMultiHop(t *testing.T) {
	cfg := Config{Topology: topo.Linear(6), Capacity: 4, CommCapacity: 1}
	s := mustState(t, cfg, [][]int{{0}, {1}, {2}, {3}, {4}, {5}})
	if err := s.Route(0, 4); err != nil {
		t.Fatal(err)
	}
	if s.IonTrap(0) != 4 {
		t.Errorf("ion 0 at trap %d, want 4", s.IonTrap(0))
	}
	if s.Shuttles() != 4 {
		t.Errorf("shuttles = %d, want 4 (Fig. 7 accounting)", s.Shuttles())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestApplyGate2QRequiresCoLocation(t *testing.T) {
	s := mustState(t, twoTrapCfg(), [][]int{{0, 1}, {2, 3}})
	if err := s.ApplyGate2Q("ms", 0, 2, 0); err == nil {
		t.Fatal("cross-trap 2Q gate accepted")
	}
	if err := s.ApplyGate2Q("ms", 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if !s.CoLocated(0, 1) || s.CoLocated(0, 2) {
		t.Error("CoLocated wrong")
	}
}

func TestApplyGate1QAndMeasure(t *testing.T) {
	s := mustState(t, twoTrapCfg(), [][]int{{0}, {1}})
	if err := s.ApplyGate1Q("r", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyGate1Q("measure", 1, 1); err != nil {
		t.Fatal(err)
	}
	ops := s.Ops()
	if ops[0].Kind != OpGate1Q || ops[1].Kind != OpMeasure {
		t.Fatalf("ops = %v", ops)
	}
}

func TestOpStrings(t *testing.T) {
	s := mustState(t, twoTrapCfg(), [][]int{{0, 1, 2}, {3}})
	if err := s.Hop(0, 1); err != nil {
		t.Fatal(err)
	}
	s.ApplyGate2Q("ms", 0, 3, 7)
	s.ApplyGate1Q("r", 3, 8)
	joined := ""
	for _, op := range s.Ops() {
		joined += op.String() + "\n"
	}
	for _, want := range []string{"swap ion0", "split", "move ion0 T0->T1", "merge", "ms ion0,ion3 T1 (g7)", "r ion3 T1 (g8)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q:\n%s", want, joined)
		}
	}
	for _, k := range []OpKind{OpGate1Q, OpGate2Q, OpSwap, OpSplit, OpMove, OpMerge, OpMeasure, OpKind(99)} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}

func TestStateString(t *testing.T) {
	s := mustState(t, twoTrapCfg(), [][]int{{0, 1, 2}, {3, 4, 5}})
	got := s.String()
	if !strings.Contains(got, "T0: [0 1 2] (EC=1)") || !strings.Contains(got, "T1: [3 4 5] (EC=1)") {
		t.Errorf("String = %q", got)
	}
}

func TestSnapshotAndClone(t *testing.T) {
	s := mustState(t, twoTrapCfg(), [][]int{{0, 1}, {2, 3}})
	if err := s.Hop(0, 1); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if len(snap[1]) != 3 {
		t.Errorf("snapshot T1 = %v", snap[1])
	}
	clone := s.Clone()
	if err := clone.Hop(1, 1); err != nil {
		t.Fatal(err)
	}
	if s.Occupancy(1) != 3 {
		t.Error("clone mutation leaked into original")
	}
	if clone.Shuttles() != 2 || s.Shuttles() != 1 {
		t.Errorf("shuttle counts: clone=%d orig=%d", clone.Shuttles(), s.Shuttles())
	}
	// Snapshot is a deep copy too.
	snap[0][0] = 99
	if s.Chain(0)[0] == 99 {
		t.Error("snapshot shares memory with state")
	}
}

func TestMergeSideConvention(t *testing.T) {
	cfg := Config{Topology: topo.Linear(3), Capacity: 5, CommCapacity: 1}
	s := mustState(t, cfg, [][]int{{0, 1}, {2, 3}, {4, 5}})
	// Hop ion 4 left from T2 into T1: it came from the high side, so it
	// lands at the high end of T1's chain.
	if err := s.Hop(4, 1); err != nil {
		t.Fatal(err)
	}
	chain := s.Chain(1)
	if chain[len(chain)-1] != 4 {
		t.Errorf("T1 chain = %v, want ion 4 at high end", chain)
	}
	// Hop ion 1 right from T0 into T1: lands at the low end.
	if err := s.Hop(1, 1); err != nil {
		t.Fatal(err)
	}
	chain = s.Chain(1)
	if chain[0] != 1 {
		t.Errorf("T1 chain = %v, want ion 1 at low end", chain)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Property: after any random sequence of legal hops, invariants hold, ion
// count is conserved, and shuttle count equals the number of OpMove entries.
func TestQuickHopInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTraps := 2 + rng.Intn(4)
		cfg := Config{Topology: topo.Linear(nTraps), Capacity: 4, CommCapacity: 1}
		placement := make([][]int, nTraps)
		ion := 0
		for t := 0; t < nTraps; t++ {
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				placement[t] = append(placement[t], ion)
				ion++
			}
		}
		s, err := NewState(cfg, placement)
		if err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			q := rng.Intn(s.NumIons())
			from := s.IonTrap(q)
			nbs := cfg.Topology.Neighbors(from)
			to := nbs[rng.Intn(len(nbs))]
			if s.IsFull(to) {
				continue
			}
			if err := s.Hop(q, to); err != nil {
				return false
			}
		}
		if s.CheckInvariants() != nil {
			return false
		}
		return s.Shuttles() == s.OpCount(OpMove) && s.NumIons() == ion
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: chain order bookkeeping — every ion's posOf matches its index,
// exercised through random hops on a ring (both merge sides).
func TestQuickChainPositions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Topology: topo.Ring(4), Capacity: 5, CommCapacity: 1}
		placement := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
		s, err := NewState(cfg, placement)
		if err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			q := rng.Intn(8)
			from := s.IonTrap(q)
			nbs := cfg.Topology.Neighbors(from)
			to := nbs[rng.Intn(len(nbs))]
			if s.IsFull(to) {
				continue
			}
			if err := s.Hop(q, to); err != nil {
				return false
			}
			for tr := 0; tr < 4; tr++ {
				for p, ion := range s.Chain(tr) {
					if s.IonPos(ion) != p || s.IonTrap(ion) != tr {
						return false
					}
				}
			}
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestOpLayout guards the trace's memory layout: Op stays 24 bytes and
// holds nothing the garbage collector must scan, so a trace of any length
// is one flat, pointer-free allocation. A new field that is a pointer,
// string, slice, map, channel, func or interface fails here.
func TestOpLayout(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Op{}) = %d, want 24", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: Op must stay pointer-free", path, typ.Kind())
		}
	}
	walk("Op", reflect.TypeOf(Op{}))
}

func TestMnemonicTable(t *testing.T) {
	for _, name := range []string{"r", "rz", "ms", "measure"} {
		m, err := ParseMnemonic(name)
		if err != nil {
			t.Fatalf("ParseMnemonic(%q): %v", name, err)
		}
		if m == NoMnemonic || m.String() != name {
			t.Errorf("ParseMnemonic(%q) = %d (%q)", name, m, m.String())
		}
	}
	for _, name := range []string{"", "cx", "barrier", "R", "ms "} {
		if m, err := ParseMnemonic(name); err == nil {
			t.Errorf("ParseMnemonic(%q) = %v, want an error", name, m)
		}
	}
	if NoMnemonic.String() != "" {
		t.Errorf("NoMnemonic renders %q", NoMnemonic.String())
	}
	if s := Mnemonic(200).String(); s != "Mnemonic(200)" {
		t.Errorf("out-of-table mnemonic renders %q", s)
	}
}

func TestApplyGateRejectsUnknownMnemonic(t *testing.T) {
	s := mustState(t, twoTrapCfg(), [][]int{{0, 1}, {2}})
	if err := s.ApplyGate1Q("h", 0, 0); err == nil {
		t.Error("1Q gate \"h\" recorded")
	}
	if err := s.ApplyGate2Q("cx", 0, 1, 1); err == nil {
		t.Error("2Q gate \"cx\" recorded")
	}
	if n := len(s.Ops()); n != 0 {
		t.Errorf("rejected gates left %d ops in the trace", n)
	}
}

// TestTraceGrowsByDoubling pins the trace growth policy: a first block of
// minTraceOps, then doubling, so the bytes copied while growing never
// exceed the final trace.
func TestTraceGrowsByDoubling(t *testing.T) {
	s := mustState(t, twoTrapCfg(), [][]int{{0, 1}, {2}})
	var caps []int
	for i := 0; i < 5*minTraceOps; i++ {
		if err := s.ApplyGate2Q("ms", 0, 1, i); err != nil {
			t.Fatal(err)
		}
		if c := cap(s.Ops()); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	want := []int{minTraceOps, 2 * minTraceOps, 4 * minTraceOps, 8 * minTraceOps}
	if !reflect.DeepEqual(caps, want) {
		t.Errorf("trace capacities %v, want %v", caps, want)
	}
	if got := s.OpCount(OpGate2Q); got != 5*minTraceOps {
		t.Errorf("OpCount(gate2q) = %d, want %d", got, 5*minTraceOps)
	}
	for i, op := range s.Ops() {
		if int(op.Gate) != i {
			t.Fatalf("op %d carries gate %d after growth", i, op.Gate)
		}
	}
}
