// Command perfbench is muzzle's end-to-end benchmark. It runs one of three
// workloads in a single process — the paper's evaluation suite, the muzzled
// daemon under closed-loop clients, and a coordinator sweep across two
// in-process workers — and prints one JSON object as its last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (see endToEnd); with
// -trace 1 the run is split in two halves, the second traced, and the
// metrics are the per-layer ones (see perLayer), with the spans written to
// -spans. Every workload does a fixed amount of work derived from -seed and
// -seconds, and checks every op's output; see README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds its workload's set-up; setup_s
// is their median, and only the last one is kept for the measured phase.
const setupReps = 5

// instance is one set-up workload, ready to run.
type instance interface {
	// units is the number of rounds the measured phase runs (passes over
	// the suite, blocks of requests, or grids of cells); the traced run
	// splits them in two halves.
	units() int
	// run executes rounds [lo, hi), recording every op in rec and, when tr
	// is non-nil, a span around every call into a layer.
	run(ctx context.Context, lo, hi int, rec *recorder, tr *Tracer) error
	// verdict runs the post-timing correctness gates and returns how many
	// ops were attempted and how many failed, over every run so far.
	verdict(ctx context.Context) (attempted, failed int, err error)
	// layers returns the per-layer metrics of the traced half.
	layers(ctx context.Context, tr *Tracer, traced phase) (map[string]float64, error)
	// fingerprint is the SHA-256 of the generated inputs, in hex.
	fingerprint() string
	close()
}

// workload names a set-up function; README.md and BENCHMARK.json say why
// each workload exists.
type workload struct {
	name  string
	setup func(ctx context.Context, seed int64, seconds int) (instance, error)
}

var workloads = []workload{
	{"paper-suite", setupPaper},
	{"muzzled-closed", setupMuzzled},
	{"sweep-fleet", setupFleet},
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; the work is fixed from it, not timed")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := flag.String("spans", "", "span output file of a traced run (default .bench_build/trace/<workload>-seed<seed>.jsonl)")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *seconds < 1:
		return fmt.Errorf("-seconds must be >= 1")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
	}
	ctx := context.Background()

	reps := setupReps
	var ref *reference
	if *trace == 1 {
		reps = 1 // set-up time and reference speed serve the end-to-end metrics only
	} else {
		ref = newReference()
	}
	inst, setupS, err := setUp(ctx, wl, *seed, *seconds, reps, ref)
	if err != nil {
		return err
	}
	defer inst.close()
	fmt.Printf("workload %s seed %d inputs sha256:%s\n", wl.name, *seed, inst.fingerprint())

	var metrics map[string]metric
	n := inst.units()
	if *trace == 0 {
		setupSlowdown := slowdown(ref.times)
		ph, err := measure(ctx, inst, 0, n, nil, ref)
		if err != nil {
			return err
		}
		metrics = endToEndMetrics(ph, setupS, setupSlowdown)
	} else {
		metrics, err = tracedRun(ctx, inst, n, wl.name == "paper-suite", *spans)
		if err != nil {
			return err
		}
	}
	attempted, failed, err := inst.verdict(ctx)
	if err != nil {
		return err
	}
	want := perLayer
	if *trace == 0 {
		metrics["ok_ratio"] = metric{okRatio(attempted, failed), "ratio"}
		want = endToEnd
	}
	for _, m := range want {
		if got, ok := metrics[m.name]; !ok || got.Unit != m.unit || len(metrics) != len(want) {
			return fmt.Errorf("metric %s missing or mislabelled in the result", m.name)
		}
	}
	printSummary(metrics)
	out, err := json.Marshal(result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// okRatio is the share of attempted ops that passed their correctness
// gate; a refused or failed request counts as failed.
func okRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// setUp builds the workload reps times and returns the last instance with
// the median set-up time in seconds. Earlier instances are closed and
// collected before the next is built, so each set-up starts from the same
// heap. ref, when non-nil, is timed before each set-up.
func setUp(ctx context.Context, wl *workload, seed int64, seconds, reps int, ref *reference) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		if ref != nil {
			ref.measure()
		}
		t0 := time.Now()
		next, err := wl.setup(ctx, seed, seconds)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		inst = next
	}
	runtime.GC() // start the measured phase from a collected heap
	return inst, median(times), nil
}

// measure runs rounds [lo, hi) one at a time under one recorder. ref, when
// non-nil, is timed before each round and after the last, outside the
// rounds, and sets each round's slowdown.
func measure(ctx context.Context, inst instance, lo, hi int, tr *Tracer, ref *reference) (phase, error) {
	rec := newRecorder()
	var refs []float64
	for u := lo; u < hi; u++ {
		if ref != nil {
			refs = append(refs, ref.measure())
		}
		rec.beginRound()
		if err := inst.run(ctx, u, u+1, rec, tr); err != nil {
			return phase{}, err
		}
		rec.endRound()
	}
	ph := rec.stop()
	if ref != nil {
		refs = append(refs, ref.measure())
		for i := range ph.rounds {
			ph.rounds[i].slowdown = slowdown(refs[i : i+2])
		}
	}
	return ph, nil
}

// tracedRun runs the first half of the units untraced and the second half
// traced, writes the spans, and returns the per-layer metrics. serial
// workloads get exact per-span allocation deltas.
func tracedRun(ctx context.Context, inst instance, n int, serial bool, spansPath string) (map[string]metric, error) {
	half := n / 2
	untraced, err := measure(ctx, inst, 0, half, nil, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	allocs := heapAllocs
	if serial {
		allocs = exactAllocs
	}
	tr := newTracer(allocs)
	traced, err := measure(ctx, inst, half, n, tr, nil)
	if err != nil {
		return nil, err
	}
	vals, err := inst.layers(ctx, tr, traced)
	if err != nil {
		return nil, err
	}
	stats := layerStats(tr.Spans())
	vals["runtime.gc_cpu_fraction"] = traced.gcCPUFraction()
	vals["runtime.gc_cycles_per_op"] = float64(traced.gcCycles) / float64(max(traced.ops, 1))
	vals["trace.ops_per_s_untraced"] = untraced.opsPerSec()
	vals["trace.ops_per_s_traced"] = traced.opsPerSec()
	vals["trace.overhead"] = untraced.opsPerSec()/traced.opsPerSec() - 1
	vals["trace.remainder_ms"] = stats["op"].SelfMS()
	if err := tr.WriteFile(spansPath); err != nil {
		return nil, err
	}
	fmt.Printf("spans %s (%d spans)\n", spansPath, len(tr.Spans()))
	printLayerTable(stats)

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit} // absent: the layer is not on this workload's path
	}
	return out, nil
}

// printLayerTable prints each span name's calls, mean self time and
// allocation, and — for layers called inside ops — their share of the
// summed op wall time. The "op" line is the remainder no layer span covers;
// together the shares account for the whole op wall time.
func printLayerTable(stats map[string]*LayerStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	var opWall time.Duration
	if op := stats["op"]; op != nil {
		opWall = op.Total
	}
	fmt.Printf("%-30s %8s %12s %12s %8s\n", "span", "calls", "self_ms/call", "alloc_MiB/c", "%op")
	for _, n := range names {
		s := stats[n]
		share := ""
		if opWall > 0 && (s.InOp > 0 || n == "op") {
			share = fmt.Sprintf("%7.2f%%", 100*float64(s.Self)/float64(opWall))
		}
		label := n
		if n == "op" {
			label = "op (remainder)"
		}
		fmt.Printf("%-30s %8d %12.4f %12.4f %8s\n", label, s.Calls, s.SelfMS(), s.SelfAllocMB(), share)
	}
}

// printSummary prints the metrics one per line, sorted, before the result
// line.
func printSummary(metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}
