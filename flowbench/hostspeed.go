package main

import (
	"sync"
	"time"
)

// A shared host's speed drifts by tens of percent over minutes, in CPU time
// as well as in wall time, as other tenants load the machine. A run
// therefore also times a fixed reference kernel, the host probe, in slices
// between its iterations, and divides its times by the probe's slowdown:
// its median round over the run against a fixed reference round time. The
// probe is the benchmark's own arithmetic on a buffer that stays in the
// first-level cache and allocates nothing, so no change to the program can
// move it; a program change moves only the times it divides. A probe that
// also chased pointers through the last-level cache was tried and dropped:
// its own run-to-run noise exceeded the workloads'.

const (
	// probeFloats and probePasses size one round: butterfly-like passes
	// over an L1-resident buffer per worker.
	probeFloats = 1 << 11
	probePasses = 400
	// probeMinSlice is the shortest slice; a slice after an iteration
	// lasts at least probeShare of that iteration's wall time, so the
	// probe samples the host over a fixed share of the run.
	probeMinSlice = 150 * time.Millisecond
	probeShare    = 6
	// probeRefNS is the reference round time; about 0.8 ms was measured
	// on a two-core share of a Xeon host, so slowdowns read below 1.
	probeRefNS = 1.0e6
)

// probe is the reference kernel's state: one buffer per worker.
type probe struct {
	bufs [][]float64
	sink []float64
}

func newProbe(workers int) *probe {
	p := &probe{sink: make([]float64, workers)}
	for w := 0; w < workers; w++ {
		b := make([]float64, probeFloats)
		for i := range b {
			b[i] = float64(i%97) / 97
		}
		p.bufs = append(p.bufs, b)
	}
	return p
}

// round runs one round of the kernel on worker w.
func (p *probe) round(w int) {
	b := p.bufs[w]
	h := len(b) / 2
	s := 0.0
	for pass := 0; pass < probePasses; pass++ {
		for k := 0; k < h; k++ {
			x, y := b[k], b[k+h]
			b[k] = x + 0.5*y
			b[k+h] = x - 0.5*y
		}
		s += b[pass%h]
	}
	p.sink[w] += s
}

// slice runs rounds for at least d, each on every worker at once as the
// flow's workers run, and returns each round's wall time in nanoseconds.
func (p *probe) slice(d time.Duration) []float64 {
	var out []float64
	var wg sync.WaitGroup
	for start := time.Now(); time.Since(start) < d; {
		t := time.Now()
		for w := range p.bufs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p.round(w)
			}(w)
		}
		wg.Wait()
		out = append(out, float64(time.Since(t)))
	}
	return out
}

// slowdown is the host's slowdown over a run's probe rounds: their median
// time over the quiet-host reference (1 when there are none).
func slowdown(rounds []float64) float64 {
	if len(rounds) == 0 {
		return 1
	}
	return median(rounds) / probeRefNS
}
