// Command benchdiff maintains and inspects the repo's perf trajectory:
// BENCH_compile.json holds one benchjson snapshot per PR (append, don't
// overwrite), and benchdiff compares consecutive entries' ns/op, B/op and
// allocs/op so a regression shows up in the PR that introduced it.
//
// Usage:
//
//	benchdiff [flags] TRAJECTORY
//
// With no mode flag, compares the last two entries of TRAJECTORY (a JSON
// array of benchjson reports; a legacy single-report file counts as one
// entry) and prints a per-benchmark delta table. B/op and allocs/op do not
// depend on host speed, so a rise past 5% is a real change in what the code
// allocates; -gate makes those rises fail. ns/op past -threshold is flagged
// as a warning only, because it is comparable only on an idle identical
// host and CI runners are neither.
//
// Flags:
//
//	-new FILE           compare FILE's last snapshot against TRAJECTORY's
//	                    last entry instead of comparing TRAJECTORY's last two
//	-append FILE        append FILE's snapshots to TRAJECTORY (creating it,
//	                    or converting a legacy single-report file) and exit
//	-threshold PCT      ns/op increase that is warned about (default 10)
//	-gate               exit 1 when any benchmark's B/op or allocs/op
//	                    rises more than 5%
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Benchmark mirrors cmd/benchjson's entry format.
type Benchmark struct {
	Name        string             `json:"name"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report mirrors cmd/benchjson's top-level document.
type Report struct {
	Note       string      `json:"note,omitempty"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run() error {
	newFile := flag.String("new", "", "snapshot file to compare against the trajectory's last entry")
	appendFile := flag.String("append", "", "snapshot file to append to the trajectory")
	threshold := flag.Float64("threshold", 10, "ns/op increase (percent) that is warned about")
	gate := flag.Bool("gate", false, "exit nonzero when a benchmark's B/op or allocs/op rises more than 5%")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: benchdiff [flags] TRAJECTORY")
	}
	trajectory := flag.Arg(0)

	if *appendFile != "" {
		return appendSnapshots(trajectory, *appendFile)
	}

	prev, cur, err := pickPair(trajectory, *newFile)
	if err != nil {
		return err
	}
	_, memRegressions := diff(os.Stdout, prev, cur, *threshold)
	if memRegressions > 0 && *gate {
		return fmt.Errorf("%d benchmark(s) allocate more than %.0f%% beyond the previous snapshot (B/op or allocs/op)", memRegressions, memThreshold)
	}
	return nil
}

// load reads a trajectory or snapshot file: either a JSON array of reports
// or a legacy single-report object (which counts as a one-entry
// trajectory).
func load(path string) ([]Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []Report
	if err := json.Unmarshal(data, &many); err == nil {
		return many, nil
	}
	var one Report
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("%s: neither a report array nor a single report: %w", path, err)
	}
	return []Report{one}, nil
}

// appendSnapshots rewrites the trajectory with the snapshot file's entries
// appended, converting a legacy single-report trajectory to an array.
func appendSnapshots(trajectory, snapshot string) error {
	add, err := load(snapshot)
	if err != nil {
		return err
	}
	var have []Report
	if _, err := os.Stat(trajectory); err == nil {
		if have, err = load(trajectory); err != nil {
			return err
		}
	}
	have = append(have, add...)
	out, err := json.MarshalIndent(have, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(trajectory, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("appended %d snapshot(s) to %s (%d total)\n", len(add), trajectory, len(have))
	return nil
}

// pickPair selects the two reports to compare: the trajectory's last two
// entries, or with -new, the new file's last snapshot against the
// trajectory's last entry.
func pickPair(trajectory, newFile string) (prev, cur Report, err error) {
	base, err := load(trajectory)
	if err != nil {
		return prev, cur, err
	}
	if newFile != "" {
		fresh, err := load(newFile)
		if err != nil {
			return prev, cur, err
		}
		if len(base) == 0 || len(fresh) == 0 {
			return prev, cur, fmt.Errorf("nothing to compare: %s has %d entries, %s has %d", trajectory, len(base), newFile, len(fresh))
		}
		return base[len(base)-1], fresh[len(fresh)-1], nil
	}
	if len(base) < 2 {
		return prev, cur, fmt.Errorf("%s has %d entries; need two to diff (or use -new)", trajectory, len(base))
	}
	return base[len(base)-2], base[len(base)-1], nil
}

// memThreshold is the B/op or allocs/op rise, in percent, that counts as a
// regression. Between snapshots of identical code both moved by under 1%.
const memThreshold = 5.0

// pctDelta is the percent change from old to cur. A rise from zero is
// reported as +Inf, so a first allocation in an allocation-free benchmark
// always counts as a regression.
func pctDelta(old, cur float64) float64 {
	switch {
	case old == cur:
		return 0
	case old == 0:
		return math.Inf(1)
	}
	return (cur - old) / old * 100
}

// diff prints the per-benchmark ns/op, B/op and allocs/op values with their
// deltas and returns how many benchmarks exceeded the ns/op threshold and
// how many exceeded the memory threshold on B/op or allocs/op.
func diff(w io.Writer, prev, cur Report, threshold float64) (timeRegressions, memRegressions int) {
	old := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		old[b.Name] = b
	}
	names := make([]string, 0, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	byName := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		byName[b.Name] = b
	}

	fmt.Fprintf(w, "%-48s %14s %8s %14s %8s %11s %8s\n", "benchmark", "ns/op", "Δ", "B/op", "Δ", "allocs/op", "Δ")
	for _, name := range names {
		b := byName[name]
		p, ok := old[name]
		if !ok {
			fmt.Fprintf(w, "%-48s %14.0f %8s %14.0f %8s %11.0f %8s  (new)\n", name, b.NsPerOp, "", b.BytesPerOp, "", b.AllocsPerOp, "")
			continue
		}
		dt := pctDelta(p.NsPerOp, b.NsPerOp)
		db := pctDelta(p.BytesPerOp, b.BytesPerOp)
		da := pctDelta(p.AllocsPerOp, b.AllocsPerOp)
		var marks []string
		// allocs/op is an integer quotient over a few runs, so one-time
		// allocations amortized into it move it by one on small counts
		// (Fig2DAGBuild read 11 and 12 on identical code); a rise of one
		// is never a regression.
		allocsUp := da > memThreshold && b.AllocsPerOp-p.AllocsPerOp > 1
		if db > memThreshold || allocsUp {
			marks = append(marks, fmt.Sprintf("MEM REGRESSION (> %.0f%%)", memThreshold))
			memRegressions++
		}
		if dt > threshold {
			marks = append(marks, fmt.Sprintf("slower (> %.0f%%)", threshold))
			timeRegressions++
		}
		mark := ""
		if len(marks) > 0 {
			mark = "  " + strings.Join(marks, ", ")
		}
		fmt.Fprintf(w, "%-48s %14.0f %+7.1f%% %14.0f %+7.1f%% %11.0f %+7.1f%%%s\n",
			name, b.NsPerOp, dt, b.BytesPerOp, db, b.AllocsPerOp, da, mark)
	}
	var removed []string
	for name := range old {
		if _, ok := byName[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "%-48s (removed)\n", name)
	}
	if memRegressions > 0 {
		fmt.Fprintf(w, "REGRESSION: %d benchmark(s) allocate more than %.0f%% beyond the previous snapshot (B/op or allocs/op)\n", memRegressions, memThreshold)
	} else {
		fmt.Fprintf(w, "ok: no benchmark's B/op or allocs/op rose more than %.0f%%\n", memThreshold)
	}
	if timeRegressions > 0 {
		fmt.Fprintf(w, "WARNING: %d benchmark(s) slower than the previous snapshot by more than %.0f%% ns/op (not gated: host-dependent)\n", timeRegressions, threshold)
	} else {
		fmt.Fprintf(w, "ok: no benchmark slowed more than %.0f%% ns/op\n", threshold)
	}
	return timeRegressions, memRegressions
}
