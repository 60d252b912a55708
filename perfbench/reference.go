package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The reference box's speed drifts by up to a quarter over minutes, with
// load from outside the container (see README.md), and the program's wall
// and CPU times drift with it. Every run therefore also times a fixed
// reference kernel — stdlib code only, no allocation, so no change to the
// program or its garbage collection can speed it up or slow it down —
// before each set-up, before each round and after the last, and reports
// its timings at reference speed: each round's timings divided by that
// round's slowdown (the mean kernel time just before and after it ÷
// refNominal), and set-up time by the median slowdown before the set-ups.

// refNominal is the kernel's time on the reference box in a quiet period;
// timings are reported as if every run had seen that speed.
const refNominal = 75 * time.Millisecond

// refKernel is one goroutine's share of the reference work: a fixed sort
// and a fixed pointer chase through a buffer larger than the CPU caches,
// so it is sensitive to the same memory-system contention the program is.
type refKernel struct {
	src, buf []int
	next     []int32
}

const (
	refSortLen  = 1 << 16
	refChaseLen = 1 << 21 // 8 MiB of int32
	refSteps    = 1 << 19
)

func newRefKernel(seed int64) *refKernel {
	rng := rand.New(rand.NewSource(seed))
	k := &refKernel{src: make([]int, refSortLen), buf: make([]int, refSortLen), next: make([]int32, refChaseLen)}
	for i := range k.src {
		k.src[i] = rng.Int()
	}
	// One random cycle through every slot.
	perm := rng.Perm(refChaseLen)
	for i := range perm {
		k.next[perm[i]] = int32(perm[(i+1)%refChaseLen])
	}
	return k
}

func (k *refKernel) run() int32 {
	copy(k.buf, k.src)
	sort.Ints(k.buf)
	var p int32
	for i := 0; i < refSteps; i++ {
		p = k.next[p]
	}
	return p + int32(k.buf[0]&1)
}

// reference times the kernel on one goroutine per CPU and keeps every
// timing of the run.
type reference struct {
	kernels []*refKernel
	times   []float64 // seconds
	sink    int32
}

func newReference() *reference {
	r := &reference{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		r.kernels = append(r.kernels, newRefKernel(int64(i)+1))
	}
	return r
}

// measure runs the kernel once on every goroutine and returns (and records)
// the wall time until the last finishes, in seconds.
func (r *reference) measure() float64 {
	sinks := make([]int32, len(r.kernels))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, k := range r.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sinks[i] = k.run()
		}()
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	r.times = append(r.times, d)
	for _, s := range sinks {
		r.sink += s
	}
	return d
}

// slowdown is the median of the given kernel times ÷ refNominal: above 1
// when the machine ran slower than the reference.
func slowdown(times []float64) float64 {
	if len(times) == 0 {
		return 1
	}
	return median(times) / refNominal.Seconds()
}
