package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same on every workload.
// BENCHMARK.json lists the same names and units (a test checks it).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MiB"},
	{"peak_heap_mb", "MiB"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run. A workload whose path does not
// reach a layer reports that layer's metrics as 0 (see README.md).
var perLayer = []metricDef{
	{"qasm.parse_ms", "ms"},
	{"qasm.parse_alloc_mb", "MiB"},
	{"ckey.key_ms", "ms"},
	{"circuit.decompose_ms", "ms"},
	{"circuit.decompose_alloc_mb", "MiB"},
	{"circuit.native_gates", "count"},
	{"compiler.place_ms", "ms"},
	{"compiler.schedule_ms.baseline", "ms"},
	{"compiler.schedule_ms.optimized", "ms"},
	{"compiler.schedule_alloc_mb.baseline", "MiB"},
	{"compiler.schedule_alloc_mb.optimized", "MiB"},
	{"compiler.shuttles.baseline", "count"},
	{"compiler.shuttles.optimized", "count"},
	{"compiler.trace_ops", "count"},
	{"dag.build_ms", "ms"},
	{"dag.build_alloc_mb", "MiB"},
	{"verify.result_ms", "ms"},
	{"verify.result_alloc_mb", "MiB"},
	{"sim.simulate_ms", "ms"},
	{"eval.encode_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.stream_ms", "ms"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.entries", "count"},
	{"cache.retained_mb_per_entry", "MiB"},
	{"flight.executions", "count"},
	{"flight.coalesced", "count"},
	{"sweep.expand_ms", "ms"},
	{"coord.cell_rtt_ms", "ms"},
	{"coord.cell_local_ms", "ms"},
	{"coord.overhead_ms", "ms"},
	{"coord.slot_utilization", "ratio"},
	{"coord.dispatched", "count"},
	{"coord.retries", "count"},
	{"coord.backpressure", "count"},
	{"coord.reassigned", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles_per_op", "1/op"},
	{"trace.ops_per_s_untraced", "1/s"},
	{"trace.ops_per_s_traced", "1/s"},
	{"trace.overhead", "ratio"},
	{"trace.remainder_ms", "ms"},
}

// Runtime metrics read around the measured phase.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mLive     = "/gc/heap/live:bytes"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mCycles   = "/gc/cycles/total:gc-cycles"
)

// heapAllocs reads the cumulative heap allocation from runtime/metrics. It
// does not stop the world; the runtime folds small allocations in per span,
// so the value is exact only to a few KiB.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: mAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// recorder collects per-op samples over one measured phase, split in
// rounds. op is safe for concurrent use.
type recorder struct {
	start  time.Time
	cpu0   time.Duration
	before []metrics.Sample

	mu     sync.Mutex
	lat    []float64 // ms, every op of the phase
	heap   []float64 // MiB live after each op, parallel to lat
	live   []metrics.Sample
	rounds []round

	roundStart time.Time
	roundCPU   time.Duration
	roundFirst int // index in lat of the round's first op
}

// round is the summary of one round of a phase.
type round struct {
	ops          int
	wall, cpu    time.Duration
	p50ms, p90ms float64
	heapMB       float64 // median live heap sampled after the round's ops
	slowdown     float64 // reference slowdown around the round (1 when not measured)
}

func newRecorder() *recorder {
	r := &recorder{
		before: []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mCycles}},
		live:   []metrics.Sample{{Name: mLive}},
	}
	metrics.Read(r.before)
	r.cpu0 = processCPU()
	r.start = time.Now()
	return r
}

// beginRound starts a round; endRound closes it. The end-to-end timings
// are medians over rounds, so a burst of load from outside the process
// that slows one round does not move them.
func (r *recorder) beginRound() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.roundFirst = len(r.lat)
	r.roundCPU = processCPU()
	r.roundStart = time.Now()
}

func (r *recorder) endRound() {
	wall := time.Since(r.roundStart)
	cpu := processCPU() - r.roundCPU
	r.mu.Lock()
	defer r.mu.Unlock()
	lat := r.lat[r.roundFirst:]
	r.rounds = append(r.rounds, round{
		ops: len(lat), wall: wall, cpu: cpu,
		p50ms: percentile(lat, 50), p90ms: percentile(lat, 90),
		heapMB: median(r.heap[r.roundFirst:]), slowdown: 1,
	})
}

// op records one finished op's latency and samples the live heap: the heap
// marked live by the latest GC, so a sample does not depend on when the
// collector happens to run.
func (r *recorder) op(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat = append(r.lat, float64(d)/1e6)
	metrics.Read(r.live)
	r.heap = append(r.heap, float64(r.live[0].Value.Uint64())/(1<<20))
}

// phase is the summary of one measured phase.
type phase struct {
	wall     time.Duration
	ops      int
	rounds   []round
	alloc    uint64
	gcCPU    float64
	totalCPU float64
	gcCycles uint64
}

func (r *recorder) stop() phase {
	wall := time.Since(r.start)
	after := []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mCycles}}
	metrics.Read(after)
	r.mu.Lock()
	defer r.mu.Unlock()
	return phase{
		wall:     wall,
		ops:      len(r.lat),
		rounds:   append([]round(nil), r.rounds...),
		alloc:    after[0].Value.Uint64() - r.before[0].Value.Uint64(),
		gcCPU:    after[1].Value.Float64() - r.before[1].Value.Float64(),
		totalCPU: after[2].Value.Float64() - r.before[2].Value.Float64(),
		gcCycles: after[3].Value.Uint64() - r.before[3].Value.Uint64(),
	}
}

// roundMedian is the median over the phase's rounds of f.
func (p phase) roundMedian(f func(round) float64) float64 {
	vs := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		vs[i] = f(r)
	}
	return median(vs)
}

// opsPerSec is the median round throughput.
func (p phase) opsPerSec() float64 {
	return p.roundMedian(func(r round) float64 { return float64(r.ops) / r.wall.Seconds() })
}

// cpuPerOp is a round's process CPU time per op, in ms.
func (r round) cpuPerOp() float64 { return float64(r.cpu) / 1e6 / float64(max(r.ops, 1)) }

func (p phase) gcCPUFraction() float64 {
	if p.totalCPU <= 0 {
		return 0
	}
	return p.gcCPU / p.totalCPU
}

// endToEndMetrics turns an untraced phase into the end-to-end metrics
// (ok_ratio is added once the correctness gates have run). Timings are
// medians over rounds of each round's figure at reference speed (divided by
// the round's slowdown; rates multiplied), and set-up time is divided by
// setupSlowdown; the figures as measured are printed beside them.
// peak_heap_mb is the highest round median of the live heap sampled after
// each op: a round's median does not depend on whether a collection
// happened to mark during one op's brief peak, which made the plain maximum
// jump between runs, and it still follows a heap that grows over the run.
// Allocation covers the whole phase.
func endToEndMetrics(p phase, setupS, setupSlowdown float64) map[string]metric {
	fmt.Printf("samples %d ops in %d rounds, %.3fs; reference slowdown %.4f in set-up\n",
		p.ops, len(p.rounds), p.wall.Seconds(), setupSlowdown)
	rates := make([]float64, len(p.rounds))
	peak := 0.0
	for i, r := range p.rounds {
		rates[i] = float64(r.ops) / r.wall.Seconds()
		peak = max(peak, r.heapMB)
		fmt.Printf("round %d: %d ops %.3fs %.1f ops/s p50 %.3fms p90 %.3fms cpu %.3fms/op heap %.1fMiB slowdown %.4f\n",
			i, r.ops, r.wall.Seconds(), rates[i], r.p50ms, r.p90ms, r.cpuPerOp(), r.heapMB, r.slowdown)
	}
	if len(rates) > 1 {
		fmt.Printf("round ops/s spread (quartile distance / median) %.4f\n", relativeSpread(rates))
	}
	fmt.Printf("as measured: ops_per_s %.6g op_ms_p50 %.6g op_ms_p90 %.6g cpu_ms_per_op %.6g setup_s %.6g\n",
		p.opsPerSec(), p.roundMedian(func(r round) float64 { return r.p50ms }),
		p.roundMedian(func(r round) float64 { return r.p90ms }), p.roundMedian(round.cpuPerOp), setupS)
	return map[string]metric{
		"ops_per_s":       {p.roundMedian(func(r round) float64 { return float64(r.ops) / r.wall.Seconds() * r.slowdown }), "1/s"},
		"op_ms_p50":       {p.roundMedian(func(r round) float64 { return r.p50ms / r.slowdown }), "ms"},
		"op_ms_p90":       {p.roundMedian(func(r round) float64 { return r.p90ms / r.slowdown }), "ms"},
		"cpu_ms_per_op":   {p.roundMedian(func(r round) float64 { return r.cpuPerOp() / r.slowdown }), "ms"},
		"alloc_mb_per_op": {float64(p.alloc) / (1 << 20) / float64(max(p.ops, 1)), "MiB"},
		"peak_heap_mb":    {peak, "MiB"},
		"setup_s":         {setupS / setupSlowdown, "s"},
	}
}
