package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"muzzle/internal/bench"
	"muzzle/internal/eval"
	"muzzle/internal/machine"
	"muzzle/internal/qasm"
	"muzzle/internal/sim"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10},
	} {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{4}, 90); got != 4 {
		t.Errorf("percentile of one value = %v, want 4", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values should be NaN")
	}
	if v[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// returns, the method the benchmark's steadiness check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{0.9, 1.0, 1.05, 1.1, 1.2, 0.95, 1.02}, [3]float64{0.95, 1.02, 1.1}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if got := relativeSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("relativeSpread = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 100, Alloc: 1000},
		{ID: 1, Parent: 0, Op: 1, Name: "qasm.parse", Start: 20, End: 50, Alloc: 300},
		// Overlaps the first child and runs past the parent's end: only
		// 50..100 of it is newly covered.
		{ID: 2, Parent: 0, Op: 1, Name: "sim.simulate", Start: 40, End: 120, Alloc: 200},
		{ID: 3, Parent: -1, Op: 2, Name: "op", Start: 200, End: 250, Alloc: 10},
		{ID: 4, Parent: 3, Op: 2, Name: "qasm.parse", Start: 210, End: 220, Alloc: 4},
	}
	st := layerStats(spans)
	op := st["op"]
	if op.Calls != 2 || op.Total != 150 || op.Self != (100-80)+(50-10) {
		t.Errorf("op: calls %d total %d self %d, want 2, 150, 60", op.Calls, op.Total, op.Self)
	}
	if op.SelfAlloc != (1000-500)+(10-4) {
		t.Errorf("op self alloc = %d, want 506", op.SelfAlloc)
	}
	parse := st["qasm.parse"]
	if parse.Self != 40 || parse.InOp != 2 || !near(parse.SelfMS(), 20e-6) {
		t.Errorf("qasm.parse: self %d inOp %d selfMS %v", parse.Self, parse.InOp, parse.SelfMS())
	}
	if got := covered(spans[0], spans[1:3]); got != 80 {
		t.Errorf("covered = %d, want 80", got)
	}
	var nilStat *LayerStat
	if nilStat.SelfMS() != 0 || nilStat.TotalMS() != 0 || nilStat.SelfAllocMB() != 0 {
		t.Error("a missing layer should read as zero")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	s := tr.Begin("op", 0, -1)
	tr.End(s)
	if s != -1 || tr.Spans() != nil {
		t.Errorf("nil tracer: id %d spans %v", s, tr.Spans())
	}
}

func TestInputsAreSeedDeterministic(t *testing.T) {
	r1, s1, err := muzzledInputs(7, 400)
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, _ := muzzledInputs(7, 400)
	r3, s3, _ := muzzledInputs(8, 400)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) {
		t.Error("same seed generated different muzzled inputs")
	}
	if reflect.DeepEqual(s1, s3) || string(r1[0].body) == string(r3[0].body) {
		t.Error("different seeds generated the same muzzled inputs")
	}
	if fresh := len(r1) - workingSet; fresh != 400/freshEvery {
		t.Errorf("%d fresh circuits, want %d", fresh, 400/freshEvery)
	}
	for _, i := range s1 {
		if i < 0 || i >= len(r1) {
			t.Fatalf("sequence index %d out of range", i)
		}
	}

	if !reflect.DeepEqual(paperOrder(3, 125, 2), paperOrder(3, 125, 2)) ||
		reflect.DeepEqual(paperOrder(3, 125, 2), paperOrder(4, 125, 2)) {
		t.Error("paper order is not a function of the seed")
	}
	if !reflect.DeepEqual(fleetGrid(5, 1, 2), fleetGrid(5, 1, 2)) ||
		reflect.DeepEqual(fleetGrid(5, 1, 2), fleetGrid(6, 1, 2)) ||
		reflect.DeepEqual(fleetGrid(5, 1, 2), fleetGrid(5, 2, 2)) {
		t.Error("fleet grid is not a function of the seed and chunk")
	}
}

// A corrupted answer must fail the paper-suite gate: a Table II count off
// by one, and a random circuit whose answer changes between passes.
func TestPaperGateRejectsTamperedResult(t *testing.T) {
	p := &paperInst{cfg: machine.PaperL6(), params: sim.DefaultParams(), want: map[string]counts{}}
	for name, c := range tableII {
		p.want[name] = c
	}
	spec := bench.Catalog()[0]
	src, err := qasm.WriteString(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	r, err := paperOp(context.Background(), qasmInput{spec.Name, src}, p.cfg, p.params)
	if err := p.gate(spec.Name, r, err); err != nil {
		t.Fatalf("untouched %s result failed the gate: %v", spec.Name, err)
	}
	r.Outcomes["optimized"].Shuttles++
	if err := p.gate(spec.Name, r, nil); err == nil {
		t.Errorf("tampered %s result passed the gate", spec.Name)
	}
	first := &eval.ResultJSON{Outcomes: map[string]*eval.OutcomeJSON{"baseline": {Shuttles: 5}, "optimized": {Shuttles: 3}}}
	if err := p.gate("Random-x", first, nil); err != nil {
		t.Fatal(err)
	}
	first.Outcomes["baseline"].Shuttles = 6
	if err := p.gate("Random-x", first, nil); err == nil {
		t.Error("a changed answer for a random circuit passed the gate")
	}
}

func TestReadJobStream(t *testing.T) {
	done := "event: state\nid: 0\ndata: {\"kind\":\"state\",\"state\":\"running\"}\n\n" +
		"event: circuit\nid: 1\ndata: {\"kind\":\"circuit\",\"result\":{\"circuit\":\"c\",\"outcomes\":{\"baseline\":{\"shuttles\":4}}}}\n\n" +
		"event: state\nid: 2\ndata: {\"kind\":\"state\",\"state\":\"done\"}\n\n"
	r, err := readJobStream(strings.NewReader(done))
	if err != nil || r.Outcomes["baseline"].Shuttles != 4 {
		t.Fatalf("done stream: %v, %v", r, err)
	}
	failed := strings.Replace(done, `"state":"done"`, `"state":"failed"`, 1)
	if _, err := readJobStream(strings.NewReader(failed)); err == nil {
		t.Error("a stream ending in failed passed")
	}
	noResult := "data: {\"kind\":\"state\",\"state\":\"done\"}\n\n"
	if _, err := readJobStream(strings.NewReader(noResult)); err == nil {
		t.Error("a done stream without a result passed")
	}
}

// The muzzled-closed gate, end to end: a short run is all correct, and a
// daemon answer corrupted after timing fails the in-process re-run check,
// so ok_ratio drops below 1.
func TestMuzzledGateRejectsTamperedResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon")
	}
	ctx := context.Background()
	inst, err := setupMuzzled(ctx, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	m := inst.(*muzzledInst)
	m.seq = m.seq[:muzzledRounds*freshEvery]
	if err := m.run(ctx, 0, muzzledRounds, newRecorder(), nil); err != nil {
		t.Fatal(err)
	}
	for i := range m.fresh {
		m.fresh[i]["optimized"]++
		break
	}
	attempted, failed, err := m.verdict(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if attempted != len(m.seq) || failed != 1 || okRatio(attempted, failed) >= 1 {
		t.Errorf("attempted %d failed %d ok_ratio %v, want %d, 1, < 1", attempted, failed, okRatio(attempted, failed), len(m.seq))
	}
}

// The sweep-fleet gate: a sampled cell whose report was corrupted no
// longer matches its in-process re-run.
func TestFleetGateRejectsTamperedResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet")
	}
	ctx := context.Background()
	inst, err := setupFleet(ctx, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	f := inst.(*fleetInst)
	if err := f.run(ctx, 0, 1, newRecorder(), nil); err != nil {
		t.Fatal(err)
	}
	attempted, failed, err := f.verdict(ctx)
	if err != nil || failed != 0 || attempted != len(f.grids[0].Cells) {
		t.Fatalf("clean run: attempted %d failed %d err %v", attempted, failed, err)
	}
	i := f.sampleCells(0)[0]
	f.reports[0].Cells[i].Outcomes[0].Shuttles++
	attempted, failed, _ = f.verdict(ctx)
	if failed != 1 || okRatio(attempted, failed) >= 1 {
		t.Errorf("tampered cell: failed %d ok_ratio %v, want 1, < 1", failed, okRatio(attempted, failed))
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, program has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
