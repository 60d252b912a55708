package main

import (
	"context"
	"encoding/json"
	"fmt"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/ckey"
	"muzzle/internal/compiler"
	"muzzle/internal/dag"
	"muzzle/internal/eval"
	"muzzle/internal/machine"
	"muzzle/internal/qasm"
	"muzzle/internal/registry"
	"muzzle/internal/sim"
	"muzzle/internal/verify"
)

// counts are the per-compiler shuttle counts of one evaluated circuit, the
// figure every correctness gate compares.
type counts map[string]int

// countsOf extracts the shuttle counts of an encoded result.
func countsOf(r *eval.ResultJSON) counts {
	out := make(counts, len(r.Outcomes))
	for name, o := range r.Outcomes {
		out[name] = o.Shuttles
	}
	return out
}

// diff describes the first difference between two count sets, or "".
func (c counts) diff(want counts) string {
	if len(c) != len(want) {
		return fmt.Sprintf("%d compilers, want %d", len(c), len(want))
	}
	for name, w := range want {
		if g, ok := c[name]; !ok || g != w {
			return fmt.Sprintf("%s shuttles %d, want %d", name, g, w)
		}
	}
	return ""
}

// stageTotals accumulates the counts the staged run sees, for the
// per-layer metrics that are counts rather than times.
type stageTotals struct {
	schedules   int
	nativeGates int
	traceOps    int
	shuttles    map[string]int
	circuits    map[string]int
}

func newStageTotals() *stageTotals {
	return &stageTotals{shuttles: map[string]int{}, circuits: map[string]int{}}
}

// stagedRun evaluates one circuit the way eval.RunCircuit does without a
// cache (its compileAll: per compiler decompose, place, schedule, verify,
// simulate; then encode), calling each layer's public function in turn
// under its own span, all children of parent. It returns the encoded
// result and, for each compiler, the native circuit it scheduled.
func stagedRun(ctx context.Context, tr *Tracer, op, parent int, name, src string, cfg machine.Config, params sim.Params, tot *stageTotals) (*eval.ResultJSON, []*circuit.Circuit, error) {
	s := tr.Begin("qasm.parse", op, parent)
	c, err := qasm.Parse(name, src)
	tr.End(s)
	if err != nil {
		return nil, nil, err
	}
	names := eval.DefaultCompilers()
	r := &eval.BenchResult{
		Name:      c.Name,
		Qubits:    c.NumQubits,
		Gates2Q:   bench.Count2QNative(c),
		Compilers: names,
		Outcomes:  make(map[string]*eval.Outcome, len(names)),
	}
	natives := make([]*circuit.Circuit, 0, len(names))
	for _, cname := range names {
		factory, err := registry.Lookup(cname)
		if err != nil {
			return nil, nil, err
		}
		comp := factory()
		s = tr.Begin("circuit.decompose", op, parent)
		native, err := circuit.Decompose(c)
		tr.End(s)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", name, cname, err)
		}
		s = tr.Begin("compiler.place", op, parent)
		placement, err := compiler.GreedyPlacement(native, cfg)
		tr.End(s)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", name, cname, err)
		}
		s = tr.Begin("compiler.schedule."+cname, op, parent)
		res, err := comp.CompileMappedContext(ctx, native, cfg, placement)
		tr.End(s)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", name, cname, err)
		}
		s = tr.Begin("verify.result", op, parent)
		vs := verify.Result(res)
		tr.End(s)
		if len(vs) > 0 {
			return nil, nil, &verify.Error{Circuit: name, Compiler: cname, Violations: vs}
		}
		s = tr.Begin("sim.simulate", op, parent)
		rep, err := sim.SimulateContext(ctx, cfg, res.InitialPlacement, res.Ops, params)
		tr.End(s)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s sim: %w", name, cname, err)
		}
		r.Outcomes[cname] = &eval.Outcome{Compiler: cname, Result: res, Sim: rep}
		natives = append(natives, native)
		if tot != nil {
			tot.schedules++
			tot.nativeGates += len(native.Gates)
			tot.traceOps += len(res.Ops)
			tot.shuttles[cname] += res.Shuttles
			tot.circuits[cname]++
		}
	}
	s = tr.Begin("eval.encode", op, parent)
	j := eval.EncodeResult(r)
	_, err = json.Marshal(j)
	tr.End(s)
	return j, natives, err
}

// probeBeside times the two calls the traced run makes beside an op rather
// than inside it: the cache key of the circuit (ckey.Key, the hit path's
// hashing) and a DAG build of each native circuit (dag.Build, which the
// scheduler also runs internally, so its time is reported next to the
// schedule time rather than subtracted from it). Both are root spans with
// the op's id, so they never count toward the op's wall time.
func probeBeside(tr *Tracer, op int, name, src string, natives []*circuit.Circuit, cfg machine.Config, params sim.Params) error {
	c, err := qasm.Parse(name, src)
	if err != nil {
		return err
	}
	s := tr.Begin("ckey.key", op, -1)
	_ = ckey.Key(c, cfg, eval.DefaultCompilers(), params)
	tr.End(s)
	for _, n := range natives {
		s = tr.Begin("dag.build", op, -1)
		g := dag.Build(n)
		tr.End(s)
		if g == nil {
			return fmt.Errorf("%s: dag.Build returned nil", name)
		}
	}
	return nil
}

// stageLayers turns the spans and totals of staged runs into the compute
// layers' per-layer metrics.
func stageLayers(stats map[string]*LayerStat, tot *stageTotals, vals map[string]float64) {
	vals["qasm.parse_ms"] = stats["qasm.parse"].SelfMS()
	vals["qasm.parse_alloc_mb"] = stats["qasm.parse"].SelfAllocMB()
	vals["ckey.key_ms"] = stats["ckey.key"].SelfMS()
	vals["circuit.decompose_ms"] = stats["circuit.decompose"].SelfMS()
	vals["circuit.decompose_alloc_mb"] = stats["circuit.decompose"].SelfAllocMB()
	vals["compiler.place_ms"] = stats["compiler.place"].SelfMS()
	vals["dag.build_ms"] = stats["dag.build"].SelfMS()
	vals["dag.build_alloc_mb"] = stats["dag.build"].SelfAllocMB()
	vals["verify.result_ms"] = stats["verify.result"].SelfMS()
	vals["verify.result_alloc_mb"] = stats["verify.result"].SelfAllocMB()
	vals["sim.simulate_ms"] = stats["sim.simulate"].SelfMS()
	vals["eval.encode_ms"] = stats["eval.encode"].SelfMS()
	for _, cname := range eval.DefaultCompilers() {
		st := stats["compiler.schedule."+cname]
		vals["compiler.schedule_ms."+cname] = st.SelfMS()
		vals["compiler.schedule_alloc_mb."+cname] = st.SelfAllocMB()
		if n := tot.circuits[cname]; n > 0 {
			vals["compiler.shuttles."+cname] = float64(tot.shuttles[cname]) / float64(n)
		}
	}
	if tot.schedules > 0 {
		vals["circuit.native_gates"] = float64(tot.nativeGates) / float64(tot.schedules)
		vals["compiler.trace_ops"] = float64(tot.traceOps) / float64(tot.schedules)
	}
}
