package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/eval"
	"muzzle/internal/machine"
	"muzzle/internal/qasm"
	"muzzle/internal/sim"
)

// tableII pins the paper's Table II shuttle counts (baseline, optimized)
// for the five NISQ circuits on the L6 machine.
var tableII = map[string]counts{
	"Supremacy":     {"baseline": 800, "optimized": 390},
	"QAOA":          {"baseline": 1248, "optimized": 983},
	"SquareRoot":    {"baseline": 1632, "optimized": 729},
	"QFT":           {"baseline": 231, "optimized": 172},
	"QuadraticForm": {"baseline": 477, "optimized": 237},
}

// paperPassSeconds is the nominal time of one pass over the suite; a run
// makes about -seconds/paperPassSeconds passes, each one round.
const paperPassSeconds = 4

// qasmInput is one circuit as the program receives it: a name and OpenQASM
// text.
type qasmInput struct{ name, src string }

type paperInst struct {
	cfg    machine.Config
	params sim.Params
	suite  []qasmInput
	order  []int // op sequence: indices into suite, whole passes
	fp     string

	want      map[string]counts // Table II pins, then the first answer for every other circuit
	attempted int
	failed    int
	tot       *stageTotals
}

// paperSuite renders the paper's 125 circuits — the five NISQ benchmarks
// of Table II and the 120-circuit random suite — to OpenQASM.
func paperSuite() ([]qasmInput, error) {
	var circuits []*circuit.Circuit
	for _, s := range bench.Catalog() {
		circuits = append(circuits, s.Build())
	}
	circuits = append(circuits, bench.RandomSuite(bench.DefaultRandomSuiteParams())...)
	out := make([]qasmInput, len(circuits))
	for i, c := range circuits {
		src, err := qasm.WriteString(c)
		if err != nil {
			return nil, fmt.Errorf("render %s: %w", c.Name, err)
		}
		out[i] = qasmInput{c.Name, src}
	}
	return out, nil
}

// paperOrder is the op sequence: passes over the suite, each in its own
// seeded order.
func paperOrder(seed int64, suiteLen, passes int) []int {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, 0, suiteLen*passes)
	for p := 0; p < passes; p++ {
		order = append(order, rng.Perm(suiteLen)...)
	}
	return order
}

func setupPaper(ctx context.Context, seed int64, seconds int) (instance, error) {
	suite, err := paperSuite()
	if err != nil {
		return nil, err
	}
	passes := max(2, int(float64(seconds)/paperPassSeconds+0.5))
	p := &paperInst{
		cfg:    machine.PaperL6(),
		params: sim.DefaultParams(),
		suite:  suite,
		order:  paperOrder(seed, len(suite), passes),
		want:   make(map[string]counts, len(suite)),
	}
	for name, c := range tableII {
		p.want[name] = c
	}
	h := sha256.New()
	for _, in := range suite {
		fmt.Fprintf(h, "%s\x00%s\x00", in.name, in.src)
	}
	for _, i := range p.order {
		binary.Write(h, binary.LittleEndian, int32(i)) //nolint:errcheck // hash writes cannot fail
	}
	p.fp = hex.EncodeToString(h.Sum(nil))

	// Warm-up: one op on each NISQ circuit, gated like every measured op.
	for i := range bench.Catalog() {
		r, err := paperOp(ctx, suite[i], p.cfg, p.params)
		if err := p.gate(suite[i].name, r, err); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return p, nil
}

// paperOp is one op: parse the QASM text, evaluate it under the default
// baseline+optimized compilers with the verifier on and no cache, and
// encode the result as the service and CLI do.
func paperOp(ctx context.Context, in qasmInput, cfg machine.Config, params sim.Params) (*eval.ResultJSON, error) {
	c, err := qasm.Parse(in.name, in.src)
	if err != nil {
		return nil, err
	}
	r, err := eval.RunCircuit(ctx, c, eval.Options{Config: cfg, Sim: params, Verify: true})
	if err != nil {
		return nil, err
	}
	j := eval.EncodeResult(r)
	if _, err := json.Marshal(j); err != nil {
		return nil, err
	}
	return j, nil
}

// gate is the paper-suite correctness check of one op: the evaluation
// succeeded (so the verifier found no violation), and the shuttle counts
// match Table II for the NISQ circuits and the first answer for the rest.
func (p *paperInst) gate(name string, r *eval.ResultJSON, err error) error {
	if err != nil {
		return err
	}
	got := countsOf(r)
	want, ok := p.want[name]
	if !ok {
		p.want[name] = got
		return nil
	}
	if d := got.diff(want); d != "" {
		return fmt.Errorf("%s: %s", name, d)
	}
	return nil
}

// units is the number of passes over the suite.
func (p *paperInst) units() int { return len(p.order) / len(p.suite) }

// run makes passes [lo, hi), one op at a time.
func (p *paperInst) run(ctx context.Context, lo, hi int, rec *recorder, tr *Tracer) error {
	if tr != nil && p.tot == nil {
		p.tot = newStageTotals()
	}
	for k := lo * len(p.suite); k < hi*len(p.suite); k++ {
		in := p.suite[p.order[k]]
		t0 := time.Now()
		var r *eval.ResultJSON
		var err error
		if tr == nil {
			r, err = paperOp(ctx, in, p.cfg, p.params)
		} else {
			s := tr.Begin("op", k, -1)
			r, _, err = stagedRun(ctx, tr, k, s, in.name, in.src, p.cfg, p.params, p.tot)
			tr.End(s)
		}
		rec.op(time.Since(t0))
		p.attempted++
		if err := p.gate(in.name, r, err); err != nil {
			p.failed++
			fmt.Fprintln(os.Stderr, "paper-suite: op failed:", err)
		}
	}
	return nil
}

func (p *paperInst) verdict(context.Context) (int, int, error) { return p.attempted, p.failed, nil }

// layers adds the calls made beside the ops (ckey.Key and dag.Build, once
// per suite circuit) and derives the compute layers' metrics.
func (p *paperInst) layers(ctx context.Context, tr *Tracer, _ phase) (map[string]float64, error) {
	for i, in := range p.suite {
		c, err := qasm.Parse(in.name, in.src)
		if err != nil {
			return nil, err
		}
		native, err := circuit.Decompose(c)
		if err != nil {
			return nil, err
		}
		// Both compilers schedule the same native circuit, so one DAG
		// build per compiler mirrors what the schedule spans contain.
		if err := probeBeside(tr, len(p.order)+i, in.name, in.src, []*circuit.Circuit{native, native}, p.cfg, p.params); err != nil {
			return nil, err
		}
	}
	vals := map[string]float64{}
	stageLayers(layerStats(tr.Spans()), p.tot, vals)
	return vals, nil
}

func (p *paperInst) fingerprint() string { return p.fp }
func (p *paperInst) close()              {}
