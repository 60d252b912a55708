package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"muzzle"
	"muzzle/internal/coord"
	"muzzle/internal/qasm"
	"muzzle/internal/service"
	"muzzle/internal/sim"
	"muzzle/internal/sweep"
)

// sweep-fleet sizing: the measured cells are split into fleetChunks grids,
// one round each, of the same shape: every circuit spec's random circuits
// on every machine point.
const (
	fleetWorkers        = 2  // in-process muzzled workers, one job slot each (slots = nproc)
	fleetWorkerCache    = 64 // entries per worker cache, so retained heap stays bounded
	fleetChunks         = 8
	fleetCellsPerSecond = 650 // nominal: cells = fleetCellsPerSecond * -seconds
	fleetSample         = 8   // cells per grid re-run in process after timing
)

// fleetSpecs are the (qubits, 2Q gates) of the random circuit families of
// every grid: small enough that per-cell transport and JSON overhead is a
// visible share of a cell, large enough that compile work dominates it.
var fleetSpecs = [][2]int{{16, 192}, {18, 256}, {20, 320}, {22, 384}}

// fleetGrid is the grid of chunk k (k < 0 for the warm-up grid): line,
// ring and grid topologies x capacities x comm capacities x seeded random
// circuits, every cell distinct.
func fleetGrid(seed int64, k, perSpec int) sweep.Grid {
	g := sweep.Grid{
		Name: fmt.Sprintf("perfbench-seed%d-grid%d", seed, k),
		Topologies: []sweep.TopologySpec{
			{Family: sweep.FamilyLine, Traps: 4}, {Family: sweep.FamilyLine, Traps: 6},
			{Family: sweep.FamilyRing, Traps: 4}, {Family: sweep.FamilyRing, Traps: 6},
			{Family: sweep.FamilyGrid, Rows: 2, Cols: 2}, {Family: sweep.FamilyGrid, Rows: 2, Cols: 3},
		},
		Capacities:     []int{10, 12},
		CommCapacities: []int{1, 2},
	}
	for i, s := range fleetSpecs {
		g.Circuits = append(g.Circuits, sweep.CircuitSpec{
			Kind: sweep.CircuitRandom, Qubits: s[0], Gates2Q: s[1], Count: perSpec,
			Seed: ((seed*16+int64(k)+1)*int64(len(fleetSpecs)) + int64(i)) * 10_000,
		})
	}
	return g
}

// cellsPerGrid is how many cells one grid of perSpec circuits per spec has.
func cellsPerGrid(perSpec int) int {
	g := fleetGrid(0, 0, perSpec)
	return len(g.Topologies) * len(g.Capacities) * len(g.CommCapacities) * len(g.Circuits) * perSpec
}

type fleetInst struct {
	seed    int64
	grids   []*sweep.Expanded
	fp      string
	caches  []*muzzle.Cache
	flights []*muzzle.Flight
	mgrs    []*service.Manager
	srvs    []*httptest.Server
	co      *coord.Coordinator
	tt      *timedTransport

	reports []*sweep.Report // per grid, once run
	runSpan atomic.Int64    // span id of the grid run in progress, for cell spans

	// Counters at the start of the traced half.
	traced   bool
	coordAt  coord.Metrics
	cacheAt  []muzzle.CacheStats
	flightAt []muzzle.FlightStats
	latAt    []service.HistogramSnapshot
}

func setupFleet(ctx context.Context, seed int64, seconds int) (instance, error) {
	perSpec := max(1, (fleetCellsPerSecond*seconds+cellsPerGrid(1)*fleetChunks/2)/(cellsPerGrid(1)*fleetChunks))
	f := &fleetInst{seed: seed}
	h := sha256.New()
	for k := 0; k < fleetChunks; k++ {
		e, err := sweep.Expand(fleetGrid(seed, k, perSpec))
		if err != nil {
			return nil, err
		}
		f.grids = append(f.grids, e)
		if err := json.NewEncoder(h).Encode(e.Grid); err != nil {
			return nil, err
		}
		for _, c := range e.Cells {
			fmt.Fprintln(h, c.ID)
		}
	}
	f.fp = hex.EncodeToString(h.Sum(nil))

	var urls []string
	for w := 0; w < fleetWorkers; w++ {
		c, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: fleetWorkerCache})
		if err != nil {
			f.close()
			return nil, err
		}
		fl := muzzle.NewFlight()
		m := service.New(service.Config{Workers: 1, Cache: c, Flight: fl, WorkerID: fmt.Sprintf("w%d", w)})
		srv := httptest.NewServer(m.Handler())
		f.caches, f.flights, f.mgrs, f.srvs = append(f.caches, c), append(f.flights, fl), append(f.mgrs, m), append(f.srvs, srv)
		urls = append(urls, srv.URL)
	}
	f.tt = &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}, f: f}
	co, err := coord.New(coord.Config{Workers: urls, Client: &http.Client{Transport: f.tt}})
	if err != nil {
		f.close()
		return nil, err
	}
	f.co = co

	// Warm-up: a grid of other circuits large enough to fill both worker
	// caches, so the measured cells find them full and evicting.
	warmPer := (2*fleetWorkers*fleetWorkerCache + cellsPerGrid(1) - 1) / cellsPerGrid(1)
	rep, err := co.Run(ctx, fleetGrid(seed, -1, warmPer))
	if err == nil && rep.Failures() > 0 {
		err = fmt.Errorf("%d warm-up cells failed", rep.Failures())
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	f.tt.reset()
	return f, nil
}

// timedTransport times every POST /v1/cells round trip — request sent to
// response body closed — as one op, and counts refused or failed attempts.
type timedTransport struct {
	base *http.Transport
	f    *fleetInst

	mu       sync.Mutex
	rec      *recorder
	tr       *Tracer
	posts    int
	rejected int // non-200 answers and transport errors
}

func (t *timedTransport) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.posts, t.rejected = 0, 0
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/cells" {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.done(start, false)
		return nil, err
	}
	ok := resp.StatusCode == http.StatusOK
	resp.Body = &doneBody{ReadCloser: resp.Body, done: func() { t.done(start, ok) }}
	return resp, nil
}

func (t *timedTransport) done(start time.Time, ok bool) {
	end := time.Now()
	t.mu.Lock()
	t.posts++
	if !ok {
		t.rejected++
	}
	rec, tr, op := t.rec, t.tr, t.posts
	t.mu.Unlock()
	if rec != nil {
		rec.op(end.Sub(start))
	}
	tr.Record("coord.cell", op, int(t.f.runSpan.Load()), start, end)
}

// doneBody calls done once, when the coordinator closes the body.
type doneBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *doneBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func (f *fleetInst) units() int { return len(f.grids) }

func (f *fleetInst) run(ctx context.Context, lo, hi int, rec *recorder, tr *Tracer) error {
	if tr != nil && !f.traced {
		f.traced = true
		f.snapshot()
	}
	f.tt.mu.Lock()
	f.tt.rec, f.tt.tr = rec, tr
	f.tt.mu.Unlock()
	defer func() {
		f.tt.mu.Lock()
		f.tt.rec, f.tt.tr = nil, nil
		f.tt.mu.Unlock()
	}()
	for k := lo; k < hi; k++ {
		s := tr.Begin("sweep.run", -1, -1)
		f.runSpan.Store(int64(s))
		rep, err := f.co.Run(ctx, f.grids[k].Grid)
		tr.End(s)
		if err != nil {
			return fmt.Errorf("grid %d: %w", k, err)
		}
		f.reports = append(f.reports, rep)
	}
	return nil
}

// snapshot records the fleet's counters at the start of the traced half.
func (f *fleetInst) snapshot() {
	f.coordAt = f.co.MetricsSnapshot()
	f.cacheAt, f.flightAt, f.latAt = nil, nil, nil
	for w := range f.mgrs {
		f.cacheAt = append(f.cacheAt, f.caches[w].Stats())
		f.flightAt = append(f.flightAt, f.flights[w].Stats())
		f.latAt = append(f.latAt, f.mgrs[w].MetricsSnapshot().CompileLatency)
	}
}

// sampleCells picks the seeded sample of cell indices of grid k.
func (f *fleetInst) sampleCells(k int) []int {
	rng := rand.New(rand.NewSource(f.seed*100 + int64(k)))
	return rng.Perm(len(f.grids[k].Cells))[:fleetSample]
}

// verdict: every cell of every run grid must have succeeded, and a seeded
// sample per grid must be byte-identical to an in-process run of the same
// cell with the verifier on.
func (f *fleetInst) verdict(ctx context.Context) (int, int, error) {
	f.tt.mu.Lock()
	attempted, failed := f.tt.posts, f.tt.rejected
	f.tt.mu.Unlock()
	for k, rep := range f.reports {
		failed += rep.Failures()
		for _, i := range f.sampleCells(k) {
			if err := checkCell(ctx, f.grids[k], rep, i); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "sweep-fleet: grid %d: %v\n", k, err)
			}
		}
	}
	return attempted, failed, nil
}

// checkCell compares the fleet's report of cell i with an in-process,
// verified run of the same cell, byte for byte.
func checkCell(ctx context.Context, e *sweep.Expanded, rep *sweep.Report, i int) error {
	local, err := e.RunCell(ctx, i, sweep.Options{Verify: true})
	if err != nil {
		return err
	}
	if i >= len(rep.Cells) {
		return fmt.Errorf("cell %d missing from report", i)
	}
	want, err := json.Marshal(local)
	if err != nil {
		return err
	}
	got, err := json.Marshal(rep.Cells[i])
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("cell %s: fleet report differs from in-process run:\n got %s\nwant %s", local.ID, got, want)
	}
	return nil
}

// layers reports the coordinator, worker service, cache and flight layers
// of the traced half, the sweep expansion of its grids, and the compute
// layers from a staged run of the sampled cells' circuits.
func (f *fleetInst) layers(ctx context.Context, tr *Tracer, traced phase) (map[string]float64, error) {
	vals := map[string]float64{}
	cm := f.co.MetricsSnapshot()
	vals["coord.dispatched"] = float64(cm.Dispatched - f.coordAt.Dispatched)
	vals["coord.retries"] = float64((cm.Dispatched - f.coordAt.Dispatched) - (cm.Completed - f.coordAt.Completed))
	vals["coord.backpressure"] = float64(cm.Retried - f.coordAt.Retried)
	vals["coord.reassigned"] = float64(cm.Reassigned - f.coordAt.Reassigned)

	var hits, misses, evictions uint64
	var entries int
	var runSum float64
	var runCount uint64
	for w := range f.mgrs {
		st, fs := f.caches[w].Stats(), f.flights[w].Stats()
		hits += st.Hits - f.cacheAt[w].Hits
		misses += st.Misses - f.cacheAt[w].Misses
		evictions += st.Evictions - f.cacheAt[w].Evictions
		entries += f.caches[w].Len()
		vals["flight.executions"] += float64(fs.Executions - f.flightAt[w].Executions)
		vals["flight.coalesced"] += float64(fs.Coalesced - f.flightAt[w].Coalesced)
		lat := f.mgrs[w].MetricsSnapshot().CompileLatency
		runSum += lat.Sum - f.latAt[w].Sum
		runCount += lat.Count - f.latAt[w].Count
	}
	cacheLayers(vals, hits, misses, evictions, entries)
	if runCount > 0 {
		vals["service.run_ms"] = runSum / float64(runCount) * 1e3
	}
	vals["cache.retained_mb_per_entry"] = retainedPerEntry(entries)

	// Beside the timed path: expansion of the traced grids, and the
	// sampled cells re-run in process (no cache, no verifier, as the
	// workers ran them), then staged through every compute layer.
	tot := newStageTotals()
	params := sim.DefaultParams()
	for k := len(f.grids) / 2; k < len(f.grids); k++ {
		s := tr.Begin("sweep.expand", -1, -1)
		_, err := sweep.Expand(f.grids[k].Grid)
		tr.End(s)
		if err != nil {
			return nil, err
		}
		for n, i := range f.sampleCells(k) {
			op := -(k*fleetSample + n + 2)
			s := tr.Begin("coord.cell_local", op, -1)
			_, err := f.grids[k].RunCell(ctx, i, sweep.Options{})
			tr.End(s)
			if err != nil {
				return nil, err
			}
			cell := f.grids[k].Cells[i]
			src, err := qasm.WriteString(cell.Build())
			if err != nil {
				return nil, err
			}
			s = tr.Begin("probe", op, -1)
			_, natives, err := stagedRun(ctx, tr, op, s, cell.Circuit, src, cell.Machine, params, tot)
			tr.End(s)
			if err != nil {
				return nil, err
			}
			if err := probeBeside(tr, op, cell.Circuit, src, natives, cell.Machine, params); err != nil {
				return nil, err
			}
		}
	}
	stats := layerStats(tr.Spans())
	stageLayers(stats, tot, vals)
	vals["sweep.expand_ms"] = stats["sweep.expand"].TotalMS()
	rtt, local := stats["coord.cell"], stats["coord.cell_local"]
	vals["coord.cell_rtt_ms"] = rtt.TotalMS()
	vals["coord.cell_local_ms"] = local.TotalMS()
	vals["coord.overhead_ms"] = rtt.TotalMS() - local.TotalMS()
	if rtt != nil {
		vals["coord.slot_utilization"] = rtt.Total.Seconds() / (traced.wall.Seconds() * fleetWorkers)
	}
	return vals, nil
}

func (f *fleetInst) fingerprint() string { return f.fp }

func (f *fleetInst) close() {
	for _, s := range f.srvs {
		s.Close()
	}
	for _, m := range f.mgrs {
		m.Close()
	}
	if f.tt != nil {
		f.tt.base.CloseIdleConnections()
	}
}
