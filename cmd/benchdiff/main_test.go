package main

import (
	"io"
	"math"
	"strings"
	"testing"
)

func report(bs ...Benchmark) Report { return Report{Benchmarks: bs} }

func TestDiffGatesMemoryNotTime(t *testing.T) {
	prev := report(
		Benchmark{Name: "A", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		Benchmark{Name: "B", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		Benchmark{Name: "C", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		Benchmark{Name: "D", NsPerOp: 100},
		Benchmark{Name: "gone", NsPerOp: 1},
	)
	cur := report(
		Benchmark{Name: "A", NsPerOp: 200, BytesPerOp: 1000, AllocsPerOp: 10}, // slower only
		Benchmark{Name: "B", NsPerOp: 90, BytesPerOp: 1100, AllocsPerOp: 10},  // B/op +10%
		Benchmark{Name: "C", NsPerOp: 90, BytesPerOp: 500, AllocsPerOp: 12},   // allocs/op +20%
		Benchmark{Name: "D", NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 1},    // first allocation
		Benchmark{Name: "fresh", NsPerOp: 1, BytesPerOp: 1 << 20},
	)
	var out strings.Builder
	timeReg, memReg := diff(&out, prev, cur, 10)
	if timeReg != 1 || memReg != 3 {
		t.Errorf("regressions: time %d mem %d, want 1 and 3\n%s", timeReg, memReg, out.String())
	}
	for _, want := range []string{"(new)", "(removed)", "MEM REGRESSION", "slower"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestDiffWithinThresholds(t *testing.T) {
	prev := report(Benchmark{Name: "A", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 100})
	cur := report(Benchmark{Name: "A", NsPerOp: 109, BytesPerOp: 1049, AllocsPerOp: 104})
	if timeReg, memReg := diff(io.Discard, prev, cur, 10); timeReg != 0 || memReg != 0 {
		t.Errorf("regressions: time %d mem %d, want none", timeReg, memReg)
	}
}

func TestDiffAllocsRoundingSlack(t *testing.T) {
	prev := report(Benchmark{Name: "A", NsPerOp: 1, BytesPerOp: 1000, AllocsPerOp: 11})
	cur := report(Benchmark{Name: "A", NsPerOp: 1, BytesPerOp: 1000, AllocsPerOp: 12})
	if _, memReg := diff(io.Discard, prev, cur, 10); memReg != 0 {
		t.Errorf("allocs/op 11 -> 12 gated as a regression")
	}
	cur.Benchmarks[0].AllocsPerOp = 13
	if _, memReg := diff(io.Discard, prev, cur, 10); memReg != 1 {
		t.Errorf("allocs/op 11 -> 13 not gated")
	}
}

func TestPctDelta(t *testing.T) {
	for _, c := range []struct{ old, cur, want float64 }{
		{0, 0, 0}, {100, 150, 50}, {100, 50, -50}, {0, 3, math.Inf(1)},
	} {
		if got := pctDelta(c.old, c.cur); got != c.want {
			t.Errorf("pctDelta(%v, %v) = %v, want %v", c.old, c.cur, got, c.want)
		}
	}
}
