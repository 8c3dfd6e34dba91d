package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"octopus/internal/geom"
	"octopus/internal/meshgen"
)

func TestOpStreamDigest(t *testing.T) {
	m, err := meshgen.BuildBoxTet(8, 8, 8, 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(seed int64) string {
		ranges, knns := genPools(m, 40, 10, seed)
		ops := mixOps(ranges, knns)
		s := &serveStreams{kind: serveHotspot, nOps: len(ops), rng: newRand(seed + 1), z: newZipf(len(ops), 1.1)}
		return digest(ops, append(s.open(time.Second), s.closed()...)...)
	}
	a, b, c := stream(7), stream(7), stream(8)
	if a != b {
		t.Errorf("same seed, different op streams: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same op stream %s", a)
	}
}

func TestPoissonMeanGap(t *testing.T) {
	const rate = 1000.0
	due := poissonSchedule(newRand(1), rate, 100*time.Second)
	gap := due[len(due)-1].Seconds() / float64(len(due)-1)
	if want := 1 / rate; math.Abs(gap-want)/want > 0.02 {
		t.Errorf("mean gap %.6f s over %d arrivals, want %.6f within 2 %%", gap, len(due), want)
	}
}

func TestZipfTopShare(t *testing.T) {
	z := newZipf(512, 1.1)
	rng := newRand(1)
	const draws = 200000
	top := 0
	for i := 0; i < draws; i++ {
		if z.draw(rng) < 16 {
			top++
		}
	}
	got, want := float64(top)/draws, z.topShare(16)
	// H(16, 1.1) / H(512, 1.1)
	if math.Abs(want-0.5796) > 0.001 {
		t.Errorf("theoretical top-16 share %.4f, want 0.5796", want)
	}
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("top-16 share %.4f, want %.4f within 2 %%", got, want)
	}
}

// A scripted client: times in ms from the segment start.
func TestBusyPeriod(t *testing.T) {
	const ms = time.Millisecond
	var b busyPeriod
	steps := []struct {
		name                   string
		due, send, done        time.Duration
		wantStart, wantLateGen time.Duration
	}{
		{"idle, sleep overshoots 1 ms: timed from the send", 10 * ms, 11 * ms, 16 * ms, 11 * ms, 1 * ms},
		{"came due during the overshoot: timed from the period's start", 10500 * time.Microsecond, 16 * ms, 17 * ms, 11 * ms, 500 * time.Microsecond},
		{"came due while the client was busy: timed from the due time", 13 * ms, 17 * ms, 18 * ms, 13 * ms, 0},
		{"still the same busy period", 17500 * time.Microsecond, 18 * ms, 19 * ms, 17500 * time.Microsecond, 0},
		{"idle again, sent on time", 30 * ms, 30 * ms, 31 * ms, 30 * ms, 0},
	}
	for _, s := range steps {
		start, late := b.begin(s.due, s.send)
		if start != s.wantStart || late != s.wantLateGen {
			t.Errorf("%s: start %v late %v, want %v and %v", s.name, start, late, s.wantStart, s.wantLateGen)
		}
		b.until = s.done
	}
}

func TestSelfTime(t *testing.T) {
	// router [0,100): rpc A [10,40), rpc B [30,60) overlapping A, rpc C
	// [90,120) running past the parent's end.
	got := selfNS(0, 100, [][2]int64{{10, 40}, {30, 60}, {90, 120}})
	if want := int64(100 - 50 - 10); got != want {
		t.Errorf("self time %d, want %d", got, want)
	}
	if got := selfNS(0, 100, nil); got != 100 {
		t.Errorf("self time without children %d, want 100", got)
	}

	// Handles find their RPC by shard, op, payload hash and containment;
	// a retry of the same payload is a second RPC and takes the second
	// handle.
	spans := []span{
		{Name: spanRPC, ID: 1, Req: 7, Shard: 2, opByte: 3, hash: 99, Start: 0, End: 50},
		{Name: spanRPC, ID: 2, Req: 7, Shard: 2, opByte: 3, hash: 99, Start: 60, End: 90},
		{Name: spanHandle, ID: 3, Shard: 2, opByte: 3, hash: 99, Start: 65, End: 80},
		{Name: spanHandle, ID: 4, Shard: 2, opByte: 3, hash: 99, Start: 10, End: 30},
		{Name: spanHandle, ID: 5, Shard: 1, opByte: 3, hash: 99, Start: 10, End: 30}, // other shard
	}
	if n := matchHandles(spans); n != 1 {
		t.Errorf("%d unmatched handle spans, want 1", n)
	}
	if spans[2].Parent != 2 || spans[3].Parent != 1 || spans[3].Req != 7 || spans[4].Parent != 0 {
		t.Errorf("handle parents %d %d %d, want 2 1 0", spans[2].Parent, spans[3].Parent, spans[4].Parent)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartile spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("quartile spread of one value %v, want 0", got)
	}
}

// What verify puts down to the edge-connectivity caveat: a true subset of
// a range result, nearer-first neighbours. Anything else is wrong.
func TestSoundAnswers(t *testing.T) {
	want := []int32{2, 5, 7, 9}
	for _, c := range []struct {
		got   []int32
		sound bool
	}{
		{[]int32{2, 5, 7, 9}, true},
		{[]int32{5, 9}, true}, // a piece the crawl did not reach is missing
		{nil, true},
		{[]int32{5, 6}, false},    // 6 is not in the box
		{[]int32{5, 5, 9}, false}, // merged twice
		{[]int32{2, 5, 7, 9, 11}, false},
	} {
		if got := subsetOf(c.got, want); got != c.sound {
			t.Errorf("subsetOf(%v, %v) = %v, want %v", c.got, want, got, c.sound)
		}
	}
	pos := []geom.Vec3{{X: 1}, {X: 2}, {X: -2}, {X: 4}}
	for _, c := range []struct {
		got   []int32
		sound bool
	}{
		{[]int32{0, 1, 2, 3}, true}, // 1 and 2 tie on distance: ascending id
		{[]int32{0, 2, 3}, true},    // a farther neighbour in a missing one's place
		{[]int32{0, 2, 1}, false},   // the tie the wrong way round
		{[]int32{3, 0}, false},      // ordered by stale distances
		{[]int32{0, 0}, false},
		{[]int32{0, 4}, false}, // no such vertex
	} {
		if got := nearestFirst(pos, geom.Vec3{}, c.got); got != c.sound {
			t.Errorf("nearestFirst(%v) = %v, want %v", c.got, got, c.sound)
		}
	}
}

// Two windows of a scripted run: the box ran the reference kernel at
// nominal speed around the first and at half speed around the second, so
// the second's samples count half, and its second as half a second.
func TestReferenceSpeed(t *testing.T) {
	rep := func(v float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	ws := []window{
		{rangeUS: rep(100, 10), knnUS: rep(10, 10), stepMS: rep(1, 10), queries: 100, wall: time.Second, refMS: []float64{refNominalMS}},
		{rangeUS: rep(300, 10), knnUS: rep(30, 10), stepMS: rep(3, 10), queries: 100, wall: time.Second, refMS: []float64{2 * refNominalMS, 2 * refNominalMS}},
	}
	res := &runResult{Metrics: map[string]float64{}, Raw: map[string]float64{}, WindowSpread: map[string]float64{}}
	res.setGated(ws)
	for name, want := range map[string][2]float64{ // scaled, raw
		"range_p50_us": {100, 100},
		"range_p95_us": {150, 300},
		"knn_p95_us":   {15, 30},
		"step_ms":      {1, 1},
		"qps":          {200 / 1.5, 100},
	} {
		if got := [2]float64{res.Metrics[name], res.Raw[name]}; math.Abs(got[0]-want[0]) > 1e-9 || math.Abs(got[1]-want[1]) > 1e-9 {
			t.Errorf("%s: at reference speed %v, unscaled %v; want %v and %v", name, got[0], got[1], want[0], want[1])
		}
	}
	if got := res.Metrics["box.slowdown"]; got != 1.5 {
		t.Errorf("box.slowdown %v, want 1.5", got)
	}
	// A window nobody took a reading around takes the run's mean.
	ws = append(ws, window{refMS: nil})
	if got := slowdowns(ws); math.Abs(got[2]-5.0/3) > 1e-12 {
		t.Errorf("slowdown of a window without a reading %v, want the mean of all readings, 5/3", got[2])
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// prints, inside the limits the benchmark driver enforces.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", file.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(file.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, the program has %d", len(file.Workloads), len(workloadSpecs))
	}
	for i, w := range file.Workloads {
		checkName(w.Name)
		if w != workloadSpecs[i] {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %+v in the program", i, w, workloadSpecs[i])
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
		if _, ok := workloadRuns[w.Name]; !ok {
			t.Errorf("workload %s has no run function", w.Name)
		}
	}
	for _, set := range []struct {
		file, prog []metricSpec
		bounded    bool
	}{{file.EndToEnd, endToEnd, true}, {file.PerLayer, perLayer, false}} {
		if len(set.file) != len(set.prog) {
			t.Fatalf("%d metrics in BENCHMARK.json, the program has %d", len(set.file), len(set.prog))
		}
		for i, m := range set.file {
			checkName(m.Name)
			if m != set.prog[i] {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, set.prog[i])
			}
			if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %s: unit %q or direction %q malformed", m.Name, m.Unit, m.Better)
			}
			if set.bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}

	// The result object carries exactly the declared metrics of its pass.
	for _, trace := range []bool{false, true} {
		var line struct {
			Metrics map[string]struct{ Unit string } `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(resultLine(&runResult{Trace: trace, Metrics: map[string]float64{}})), &line); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: result object has %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if line.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("trace=%v: metric %s missing from the result object or its unit differs", trace, m.Name)
			}
		}
	}
}
