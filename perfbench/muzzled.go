package main

import (
	"bufio"
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
	"runtime"
	"strings"
	"sync"
	"time"

	"muzzle"
	"muzzle/internal/bench"
	"muzzle/internal/eval"
	"muzzle/internal/qasm"
	"muzzle/internal/service"
	"muzzle/internal/sim"
)

// muzzled-closed sizing. The working set is rendered once; the measured
// sequence repeats it with Zipf popularity and mixes in never-seen
// circuits at freshEvery, which keeps both p50 and p90 inside the hit mode.
const (
	workingSet = 128
	freshEvery = 80
	// ops = muzzledOpsPerSecond * -seconds, about half what the daemon
	// serves per second: every fresh circuit stays in the cache, so the
	// op count and miss share together bound the run's heap.
	muzzledOpsPerSecond = 1000
	muzzledRounds       = 16
	muzzledClients      = 2 // closed-loop clients (nproc on the reference box)
	zipfS               = 1.1
)

// muzzledSize is the (qubits, 2Q gates) of the i-th working-set or fresh
// circuit. Sizes are a fixed schedule of the index — 16..32 qubits,
// 60..300 gates — so popularity rank and size do not depend on the seed;
// the seed changes only circuit content and the access sequence.
func muzzledSize(i int) (qubits, gates int) {
	return 16 + (i*37)%17, 60 + (i*113)%241
}

// muzzledReq is one distinct request body and the circuit it carries.
type muzzledReq struct {
	qasmInput
	body []byte
}

type muzzledInst struct {
	seed    int64
	reqs    []muzzledReq // working set first, then fresh circuits
	seq     []int        // op sequence: indices into reqs
	fp      string
	want    []counts // warm-up answers of the working set (index < workingSet)
	cache   *muzzle.Cache
	flight  *muzzle.Flight
	mgr     *service.Manager
	srv     *httptest.Server
	client  *http.Client
	machine muzzle.MachineConfig

	mu        sync.Mutex
	attempted int
	failed    int
	fresh     map[int]counts // daemon answers for fresh circuits, checked after timing
	views     []jobTimes     // traced run: per-op service timings

	traced   bool              // the traced half has begun
	cacheAt  muzzle.CacheStats // counters when the traced half began
	flightAt muzzle.FlightStats
}

// jobTimes are the service-side intervals of one traced op.
type jobTimes struct{ queueWait, run time.Duration }

// muzzledInputs generates the distinct requests and the op sequence of a
// run from its seed.
func muzzledInputs(seed int64, ops int) ([]muzzledReq, []int, error) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, workingSet-1)
	seq := make([]int, ops)
	for k := range seq {
		seq[k] = int(zipf.Uint64())
	}
	// Exactly one fresh circuit per block of freshEvery ops, at a seeded
	// position, so every seed sends the same number of misses.
	nFresh := 0
	for b := 0; b < ops; b += freshEvery {
		seq[b+rng.Intn(min(freshEvery, ops-b))] = workingSet + nFresh
		nFresh++
	}
	reqs := make([]muzzledReq, workingSet+nFresh)
	for i := range reqs {
		q, g := muzzledSize(i)
		name := fmt.Sprintf("ws%03d", i)
		if i >= workingSet {
			name = fmt.Sprintf("fresh%05d", i-workingSet)
		}
		c := bench.Random(q, g, seed*1_000_003+int64(i))
		src, err := qasm.WriteString(c)
		if err != nil {
			return nil, nil, err
		}
		body, err := json.Marshal(service.Request{Name: name, QASM: src})
		if err != nil {
			return nil, nil, err
		}
		reqs[i] = muzzledReq{qasmInput{name, src}, body}
	}
	return reqs, seq, nil
}

func setupMuzzled(ctx context.Context, seed int64, seconds int) (instance, error) {
	block := muzzledRounds * freshEvery
	reqs, seq, err := muzzledInputs(seed, (muzzledOpsPerSecond*seconds+block-1)/block*block)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, k := range seq {
		h.Write(reqs[k].body)
	}
	m := &muzzledInst{
		seed:  seed,
		reqs:  reqs,
		seq:   seq,
		fp:    hex.EncodeToString(h.Sum(nil)),
		want:  make([]counts, workingSet),
		fresh: map[int]counts{},
	}
	// muzzled's defaults: 2 workers, a 1,024-entry cache, flight on, no
	// journal, the 6-trap linear machine.
	m.machine, err = muzzle.NewLinearMachine(6, 17, 2)
	if err != nil {
		return nil, err
	}
	m.cache, err = muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 1024})
	if err != nil {
		return nil, err
	}
	m.flight = muzzle.NewFlight()
	m.mgr = service.New(service.Config{
		Workers: 2,
		Cache:   m.cache,
		Flight:  m.flight,
		PipelineOptions: []muzzle.PipelineOption{
			muzzle.WithMachine(m.machine),
			muzzle.WithParallelism(0),
		},
	})
	m.srv = httptest.NewServer(m.mgr.Handler())
	m.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * muzzledClients}}

	// Warm-up: submit every working-set circuit once, recording the
	// answers the measured repeats must reproduce.
	err = parallel(muzzledClients, workingSet, func(i int) error {
		r, _, err := m.do(ctx, i, nil, -1, -1)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", reqs[i].name, err)
		}
		m.want[i] = countsOf(r)
		return nil
	})
	if err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// parallel runs fn(0..n-1) on workers goroutines and returns the first
// error.
func parallel(workers, n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// units is the number of rounds, equal blocks of the op sequence.
func (m *muzzledInst) units() int { return muzzledRounds }

// run drives the ops of rounds [lo, hi) from muzzledClients closed-loop
// clients: client c sends ops first+c, first+c+clients, ..., each only
// after its previous one finished.
func (m *muzzledInst) run(ctx context.Context, lo, hi int, rec *recorder, tr *Tracer) error {
	per := len(m.seq) / muzzledRounds
	lo, hi = lo*per, hi*per
	if tr != nil && !m.traced {
		m.traced = true
		m.cacheAt, m.flightAt = m.cache.Stats(), m.flight.Stats()
	}
	var wg sync.WaitGroup
	for c := 0; c < muzzledClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := lo + c; k < hi; k += muzzledClients {
				i := m.seq[k]
				t0 := time.Now()
				span := tr.Begin("op", k, -1)
				r, id, err := m.do(ctx, i, tr, k, span)
				tr.End(span)
				rec.op(time.Since(t0))
				var view *jobTimes
				if tr != nil && err == nil {
					view, err = m.jobTimes(ctx, id)
				}
				m.record(i, r, view, err)
			}
		}()
	}
	wg.Wait()
	return nil
}

// record applies the in-run gate to one op: the job reached done and, for
// a working-set circuit, returned the warm-up answer. Fresh answers are
// kept for the in-process check after timing.
func (m *muzzledInst) record(i int, r *eval.ResultJSON, view *jobTimes, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if view != nil {
		m.views = append(m.views, *view)
	}
	if err == nil {
		err = m.gate(i, r)
	}
	if err != nil {
		m.failed++
		fmt.Fprintf(os.Stderr, "muzzled-closed: op %s failed: %v\n", m.reqs[i].name, err)
	}
}

// gate checks a daemon answer against the warm-up record (working set) or
// stores it for the post-timing check (fresh circuits).
func (m *muzzledInst) gate(i int, r *eval.ResultJSON) error {
	got := countsOf(r)
	if i >= workingSet {
		m.fresh[i] = got
		return nil
	}
	if d := got.diff(m.want[i]); d != "" {
		return fmt.Errorf("repeat differs from warm-up: %s", d)
	}
	return nil
}

// do is one op: POST /v1/jobs with the request body, then GET the job's
// SSE stream to its terminal event. It returns the circuit's result, which
// must come with state done, and the job id.
func (m *muzzledInst) do(ctx context.Context, i int, tr *Tracer, op, parent int) (*eval.ResultJSON, string, error) {
	s := tr.Begin("service.submit", op, parent)
	var view service.JobView
	err := m.call(ctx, http.MethodPost, "/v1/jobs", m.reqs[i].body, http.StatusAccepted, &view)
	tr.End(s)
	if err != nil {
		return nil, "", err
	}
	s = tr.Begin("service.stream", op, parent)
	r, err := m.stream(ctx, view.ID)
	tr.End(s)
	return r, view.ID, err
}

// jobTimes reads a finished job's view for its service-side queue wait and
// run time (traced runs only, after the op's timing has stopped).
func (m *muzzledInst) jobTimes(ctx context.Context, id string) (*jobTimes, error) {
	var view service.JobView
	if err := m.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &view); err != nil {
		return nil, err
	}
	if view.Started == nil || view.Finished == nil {
		return nil, fmt.Errorf("job %s: view lacks start/finish times", id)
	}
	return &jobTimes{view.Started.Sub(view.Created), view.Finished.Sub(*view.Started)}, nil
}

// call sends one request and decodes a JSON answer with the wanted status;
// any other status (a refused 429 or 503 included) is an error.
func (m *muzzledInst) call(ctx context.Context, method, path string, body []byte, status int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, m.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != status {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// stream reads a job's SSE stream to the end and returns its one circuit
// result; the terminal state must be done.
func (m *muzzledInst) stream(ctx context.Context, id string) (*eval.ResultJSON, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.srv.URL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	return readJobStream(resp.Body)
}

// readJobStream parses an SSE job stream: it returns the result of the
// single circuit event once the stream ends in state done.
func readJobStream(r io.Reader) (*eval.ResultJSON, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var res *eval.ResultJSON
	var final service.State
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, fmt.Errorf("stream event: %w", err)
		}
		switch ev.Kind {
		case service.EventCircuit:
			if ev.Error != "" {
				return nil, fmt.Errorf("circuit %s: %s", ev.Circuit, ev.Error)
			}
			res = ev.Result
		case service.EventState:
			final = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if final != service.StateDone || res == nil {
		return nil, fmt.Errorf("stream ended in state %q (result present: %v)", final, res != nil)
	}
	return res, nil
}

// verdict re-runs every fresh circuit in process with the verifier on and
// fails each op whose daemon answer differs.
func (m *muzzledInst) verdict(ctx context.Context) (int, int, error) {
	m.mu.Lock()
	fresh := make([]int, 0, len(m.fresh))
	for i := range m.fresh {
		fresh = append(fresh, i)
	}
	m.mu.Unlock()
	var bad sync.Map
	err := parallel(muzzledClients, len(fresh), func(k int) error {
		i := fresh[k]
		c, err := qasm.Parse(m.reqs[i].name, m.reqs[i].src)
		if err != nil {
			return err
		}
		r, err := eval.RunCircuit(ctx, c, eval.Options{Config: m.machine, Sim: sim.DefaultParams(), Verify: true})
		if err != nil {
			bad.Store(i, err.Error())
			return nil
		}
		m.mu.Lock()
		daemon := m.fresh[i]
		m.mu.Unlock()
		if d := daemon.diff(countsOf(eval.EncodeResult(r))); d != "" {
			bad.Store(i, "daemon answer differs from in-process run: "+d)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	bad.Range(func(k, v any) bool {
		m.failed++ // each fresh circuit is sent exactly once
		fmt.Fprintf(os.Stderr, "muzzled-closed: fresh %s: %v\n", m.reqs[k.(int)].name, v)
		return true
	})
	return m.attempted, m.failed, nil
}

// layers reports the service, cache and flight layers from the traced
// half, and the compute layers from a staged run of a seeded sample of
// the circuits it sent.
func (m *muzzledInst) layers(ctx context.Context, tr *Tracer, traced phase) (map[string]float64, error) {
	vals := map[string]float64{}
	st, fs := m.cache.Stats(), m.flight.Stats()
	cacheLayers(vals, st.Hits-m.cacheAt.Hits, st.Misses-m.cacheAt.Misses, st.Evictions-m.cacheAt.Evictions, m.cache.Len())
	vals["flight.executions"] = float64(fs.Executions - m.flightAt.Executions)
	vals["flight.coalesced"] = float64(fs.Coalesced - m.flightAt.Coalesced)
	m.mu.Lock()
	var qw, run time.Duration
	for _, v := range m.views {
		qw += v.queueWait
		run += v.run
	}
	if n := len(m.views); n > 0 {
		vals["service.queue_wait_ms"] = float64(qw) / float64(n) / 1e6
		vals["service.run_ms"] = float64(run) / float64(n) / 1e6
	}
	m.mu.Unlock()
	vals["cache.retained_mb_per_entry"] = retainedPerEntry(m.cache.Len())

	// Compute layers, off the timed path: a staged run of a seeded sample
	// of distinct circuits from the traced half's sequence.
	rng := rand.New(rand.NewSource(m.seed))
	half := m.seq[len(m.seq)/2:]
	tot := newStageTotals()
	seen := map[int]bool{}
	for n := 0; n < 32; n++ {
		i := half[rng.Intn(len(half))]
		if seen[i] {
			continue
		}
		seen[i] = true
		in := m.reqs[i].qasmInput
		op := len(m.seq) + n
		s := tr.Begin("probe", op, -1)
		_, natives, err := stagedRun(ctx, tr, op, s, in.name, in.src, m.machine, sim.DefaultParams(), tot)
		tr.End(s)
		if err != nil {
			return nil, err
		}
		if err := probeBeside(tr, op, in.name, in.src, natives, m.machine, sim.DefaultParams()); err != nil {
			return nil, err
		}
	}
	stats := layerStats(tr.Spans())
	stageLayers(stats, tot, vals)
	vals["service.submit_ms"] = stats["service.submit"].TotalMS()
	vals["service.stream_ms"] = stats["service.stream"].TotalMS()
	return vals, nil
}

// cacheLayers sets the cache layer's metrics from the traced half's
// counter deltas and the resident entry count.
func cacheLayers(vals map[string]float64, hits, misses, evictions uint64, entries int) {
	vals["cache.hits"] = float64(hits)
	vals["cache.misses"] = float64(misses)
	vals["cache.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	vals["cache.evictions"] = float64(evictions)
	vals["cache.entries"] = float64(entries)
}

// retainedPerEntry is the live heap after a forced collection divided by
// the cache's entry count, in MiB: what one cached result keeps alive.
func retainedPerEntry(entries int) float64 {
	if entries == 0 {
		return 0
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(entries) / (1 << 20)
}

func (m *muzzledInst) fingerprint() string { return m.fp }

func (m *muzzledInst) close() {
	if m.srv != nil {
		m.srv.Close()
	}
	if m.mgr != nil {
		m.mgr.Close()
	}
	if m.client != nil {
		m.client.CloseIdleConnections()
	}
}
