package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"octopus/internal/geom"
)

// The reference kernel. The box this benchmark runs on is a small VM on a
// shared host, and the host slows the whole VM down, by 10 to 100 % for
// seconds to minutes at a time. Measured here, every timing of the
// program follows: within a run and between runs, a window's median query
// time stayed within 3 % of a fixed multiple of what a fixed piece of
// unrelated work took in the same window, while both moved by half. So a
// run is cut into windows, that fixed work — the reference kernel — is
// timed at every window's edges while the program's clients pause, and a
// gated timing is reported at reference speed: each sample divided by how
// much slower than refNominalMS the kernel ran around the sample's
// window (README.md, "How a run's value is taken", has the measurements
// and what the scaling cannot do). The kernel knows nothing of the program under test, so whatever
// the program does — in every window or in one — stays in the numbers;
// only the host's share leaves. The unscaled values are printed and
// recorded beside the scaled ones.
//
// The work has the character of the workloads' own: one streaming pass
// over an array that outgrows the L2 cache, a little floating point per
// element. It belongs to the benchmark, so no change to the repository's
// code can move it. It runs only while no client is in flight: inside a
// saturated Go process its wall time would be the scheduler's and the
// collector's as much as the host's.
type refKernel struct {
	lanes [][]geom.Vec3 // one array per processor the program may use
}

const (
	// refNominalMS is what one pass takes on the reference box (2 vCPUs at
	// 2.1 GHz) when the host leaves it alone. On another box every scaled
	// timing shifts by one constant factor, on both sides of any
	// comparison.
	refNominalMS = 2.5
	// refPasses is how many passes per lane one reading at a window's edge
	// takes.
	refPasses = 4
	// refElems sizes a lane: 3 MB of 24-byte vertices.
	refElems = 1 << 17
)

func newRefKernel() *refKernel {
	k := &refKernel{lanes: make([][]geom.Vec3, runtime.GOMAXPROCS(0))}
	for l := range k.lanes {
		k.lanes[l] = make([]geom.Vec3, refElems)
		for i := range k.lanes[l] {
			k.lanes[l][i] = geom.V(float64(i), float64(i)/2, float64(i)/3)
		}
	}
	return k
}

func (k *refKernel) bytes() uint64 { return uint64(len(k.lanes)) * refElems * 24 }

// pass runs the kernel once over one lane and returns the milliseconds it
// took.
func (k *refKernel) pass(lane int) float64 {
	a := k.lanes[lane]
	t0 := time.Now()
	for i := range a {
		p := &a[i]
		p.X += 1e-9 * math.Sin(p.Y+float64(i))
		p.Y -= 1e-9 * math.Cos(p.Z)
		p.Z += 1e-9 * p.X
	}
	return ms(time.Since(t0))
}

// edge is one reading at a window's edge: the mean of refPasses passes on
// every lane at once, because the clients it stands in for keep every
// processor busy and the host does not slow them all alike.
func (k *refKernel) edge() float64 {
	sums := make([]float64, len(k.lanes))
	var wg sync.WaitGroup
	for l := range k.lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := 0; i < refPasses; i++ {
				sums[l] += k.pass(l)
			}
		}(l)
	}
	wg.Wait()
	return mean(sums) / refPasses
}

// window is one time slice of a run: what was measured in it, and what
// the reference kernel took at its edges (or, where the program pauses
// by itself, throughout).
type window struct {
	rangeUS, knnUS, stepMS []float64
	queries                float64 // completed
	wall                   time.Duration
	refMS                  []float64
}

// windowAt returns the window an offset from the run's start falls into.
func windowAt(ws []window, off, dur time.Duration) *window {
	return &ws[min(max(int(off*time.Duration(len(ws))/dur), 0), len(ws)-1)]
}

// slowdowns returns, per window, how much slower than nominal the box ran
// the reference kernel in it; a window without a sample takes the run's
// mean.
func slowdowns(ws []window) []float64 {
	var all []float64
	for i := range ws {
		all = append(all, ws[i].refMS...)
	}
	whole := 1.0
	if len(all) > 0 {
		whole = mean(all) / refNominalMS
	}
	slow := make([]float64, len(ws))
	for i := range ws {
		slow[i] = whole
		if len(ws[i].refMS) > 0 {
			slow[i] = mean(ws[i].refMS) / refNominalMS
		}
	}
	return slow
}

// setGated fills the gated timings from a run's windows. A latency is the
// quantile over all samples, each at reference speed; qps is the queries
// completed over the time they took at reference speed. Beside each goes
// its unscaled value and the quartile spread of the windows' own values.
func (res *runResult) setGated(ws []window) {
	slow := slowdowns(ws)
	m := res.Metrics
	m["box.slowdown"] = mean(slow)
	quant := func(name string, pick func(*window) []float64, q float64) {
		var scaled, per []float64
		for i := range ws {
			xs := pick(&ws[i])
			for _, x := range xs {
				scaled = append(scaled, x/slow[i])
			}
			if float64(len(xs))*(1-q) >= 5 { // enough beyond the quantile to speak for the window
				per = append(per, quantile(xs, q)/slow[i])
			}
		}
		m[name], res.Raw[name], res.WindowSpread[name] = quantile(scaled, q), quantile(pooled(ws, pick), q), quartileSpread(per)
	}
	rangeUS := func(w *window) []float64 { return w.rangeUS }
	knnUS := func(w *window) []float64 { return w.knnUS }
	stepMS := func(w *window) []float64 { return w.stepMS }
	quant("range_p50_us", rangeUS, 0.5)
	quant("range_p95_us", rangeUS, 0.95)
	quant("knn_p50_us", knnUS, 0.5)
	quant("knn_p95_us", knnUS, 0.95)
	quant("step_ms", stepMS, 0.5)
	// Too few samples lie beyond these for a bound to hold; they are layer
	// metrics, unscaled like every layer metric.
	m["writer.step_p95_ms"] = quantile(pooled(ws, stepMS), 0.95)
	m["client.range_p99_us"], m["client.knn_p99_us"] = quantile(pooled(ws, rangeUS), 0.99), quantile(pooled(ws, knnUS), 0.99)

	var done, wall, wallRef float64
	var per []float64
	for i := range ws {
		done += ws[i].queries
		wall += ws[i].wall.Seconds()
		wallRef += ws[i].wall.Seconds() / slow[i]
		per = append(per, ratio(ws[i].queries, ws[i].wall.Seconds()/slow[i]))
	}
	m["qps"], res.Raw["qps"], res.WindowSpread["qps"] = ratio(done, wallRef), ratio(done, wall), quartileSpread(per)
}

func pooled(ws []window, pick func(*window) []float64) []float64 {
	var all []float64
	for i := range ws {
		all = append(all, pick(&ws[i])...)
	}
	return all
}
