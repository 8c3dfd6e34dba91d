package query

// Internal unit tests for the SLO controller and the nearest-rank
// quantile. The controller's decision logic is deterministic given the
// observed latencies, so every escalation/recovery path is scripted
// tick-by-tick here; the pipeline-level behavior is covered by the
// external serve tests.

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestQuantileIndex is the regression for the quantile bias bugfix: the
// old Ceil(q*(n-1)) form biased small samples high (the median of two
// samples was the larger one; p99 of 100 samples was the maximum). The
// nearest-rank definition is ceil(q*n)-1, clamped.
func TestQuantileIndex(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.99, 0},      // degenerate: no samples
		{1, 0.99, 0},      // single sample is every quantile
		{2, 0.5, 0},       // median of two is the LOWER one (old form: 1)
		{2, 0.99, 1},      // p99 of two is the upper
		{4, 0.25, 0},      // first quartile of four is the first
		{5, 0.5, 2},       // odd-length median is the middle
		{10, 0.9, 8},      // p90 of 10: rank 9 (old form: 9 -> index 9, the max)
		{100, 0.99, 98},   // p99 of 100: rank 99, NOT the maximum (old form: 99)
		{100, 1.0, 99},    // p100 is the maximum
		{100, 0.0, 0},     // q=0 clamps to the first sample
		{1000, 0.99, 989}, // rank ceil(990) = 990
		{256, 0.99, 253},  // the controller's full-ring case: ceil(253.44) = 254
	}
	for _, c := range cases {
		if got := quantileIndex(c.n, c.q); got != c.want {
			t.Errorf("quantileIndex(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// fill overwrites the controller's whole sliding window with d.
func fill(c *SLOController, d time.Duration) {
	for i := 0; i < sloRingSize; i++ {
		c.Observe(d)
	}
}

func TestSLOControllerP99NearestRank(t *testing.T) {
	c := NewSLOController(time.Millisecond, time.Millisecond)
	// 100 distinct latencies 1..100µs: nearest-rank p99 is the 99th
	// smallest (99µs), not the maximum.
	for i := 1; i <= 100; i++ {
		c.Observe(time.Duration(i) * time.Microsecond)
	}
	dec := c.TickDecide()
	if dec.P99 != 99*time.Microsecond {
		t.Fatalf("p99 = %v, want 99µs (nearest rank, not the max)", dec.P99)
	}
	if dec.Overloaded {
		t.Fatal("99µs against a 1ms target must not be overloaded")
	}
}

func TestSLOControllerBudgetConverges(t *testing.T) {
	const target = 10 * time.Millisecond
	const maxBudget = time.Millisecond
	c := NewSLOController(target, maxBudget)
	st := c.Stats()
	if st.Budget != maxBudget || st.MaxBudget != maxBudget {
		t.Fatalf("initial budget %v, want the ceiling %v", st.Budget, maxBudget)
	}
	if st.MinBudget != maxBudget/32 {
		t.Fatalf("min budget %v, want max/32 = %v", st.MinBudget, maxBudget/32)
	}

	// Sustained overload: the budget halves every tick down to the floor.
	fill(c, 20*time.Millisecond)
	prev := maxBudget
	for i := 0; i < 10; i++ {
		dec := c.TickDecide()
		if !dec.Overloaded {
			t.Fatalf("tick %d: 20ms against 10ms must be overloaded", i)
		}
		if dec.Budget > prev {
			t.Fatalf("tick %d: budget rose %v -> %v under overload", i, prev, dec.Budget)
		}
		prev = dec.Budget
	}
	if prev != c.Stats().MinBudget {
		t.Fatalf("budget after sustained overload = %v, want floor %v", prev, c.Stats().MinBudget)
	}

	// Recovery: the budget doubles back to the ceiling.
	fill(c, time.Millisecond)
	for i := 0; i < 10; i++ {
		dec := c.TickDecide()
		if dec.Overloaded {
			t.Fatalf("tick %d: 1ms against 10ms must not be overloaded", i)
		}
		prev = dec.Budget
	}
	if prev != maxBudget {
		t.Fatalf("budget after recovery = %v, want ceiling %v", prev, maxBudget)
	}
	st = c.Stats()
	if st.Ticks != 20 || st.OverloadedTicks != 10 {
		t.Fatalf("ticks = %d/%d overloaded, want 20/10", st.Ticks, st.OverloadedTicks)
	}
}

// TestSLOControllerEscalation scripts the full overload ladder: budget
// first, then (after sloOverloadAfter consecutive misses) the admission
// window, then the crawl budget on its cooldown — and the symmetric
// recovery back to exact execution.
func TestSLOControllerEscalation(t *testing.T) {
	c := NewSLOController(10*time.Millisecond, time.Millisecond)
	fill(c, 50*time.Millisecond)

	var crawlChanges []int64
	shiftAt := make([]int, 0, 16)
	for i := 0; i < 16; i++ {
		dec := c.TickDecide()
		shiftAt = append(shiftAt, dec.WindowShift)
		if dec.CrawlChanged {
			crawlChanges = append(crawlChanges, dec.CrawlMaxVisited)
		}
	}
	// Window: unchanged for the first sloOverloadAfter-1 ticks, then +1
	// per overloaded tick up to the max shift.
	for i, s := range shiftAt {
		want := i + 2 - sloOverloadAfter // ticks are 1-based: tick 4 sets shift 1
		if want < 0 {
			want = 0
		}
		if want > sloMaxShift {
			want = sloMaxShift
		}
		if s != want {
			t.Fatalf("tick %d: shift %d, want %d (ladder %v)", i+1, s, want, shiftAt)
		}
	}
	// Crawl: installed at sloCrawlStart on the tick the window first
	// moved, then halved once per cooldown expiry.
	if len(crawlChanges) < 2 {
		t.Fatalf("crawl budget changed %d times over 16 overloaded ticks, want >= 2", len(crawlChanges))
	}
	if crawlChanges[0] != sloCrawlStart {
		t.Fatalf("first crawl budget %d, want %d", crawlChanges[0], sloCrawlStart)
	}
	if crawlChanges[1] != sloCrawlStart/2 {
		t.Fatalf("second crawl budget %d, want %d", crawlChanges[1], sloCrawlStart/2)
	}
	if st := c.Stats(); st.Tightenings != int64(len(crawlChanges)) {
		t.Fatalf("tightenings = %d, want %d", st.Tightenings, len(crawlChanges))
	}

	// Hold the overload long enough and the crawl floors out.
	for i := 0; i < 100; i++ {
		c.TickDecide()
	}
	if st := c.Stats(); st.CrawlMaxVisited != sloCrawlFloor || st.WindowShift != sloMaxShift {
		t.Fatalf("steady overload state = crawl %d shift %d, want floor %d / max shift %d",
			st.CrawlMaxVisited, st.WindowShift, sloCrawlFloor, sloMaxShift)
	}

	// Recovery: shift steps down each met tick; the crawl relaxes ×4 per
	// cooldown expiry until it returns to exact (0) exactly once.
	fill(c, time.Millisecond)
	sawExact := false
	for i := 0; i < 100; i++ {
		dec := c.TickDecide()
		if dec.CrawlChanged && dec.CrawlMaxVisited == 0 {
			sawExact = true
		}
	}
	st := c.Stats()
	if !sawExact || st.CrawlMaxVisited != 0 {
		t.Fatalf("crawl did not relax back to exact (saw=%v, now %d)", sawExact, st.CrawlMaxVisited)
	}
	if st.WindowShift != 0 {
		t.Fatalf("window shift %d after recovery, want 0", st.WindowShift)
	}
	if st.Relaxations != 1 {
		t.Fatalf("relaxations = %d, want exactly 1", st.Relaxations)
	}
}

// TestSLOControllerPhases scripts four latency phases against a 1 ms
// target and a 2 ms budget ceiling, each phase refilling the whole window
// before its ticks, and pins every actuator after each phase: the budget
// drops to its floor (ceiling/32) and comes back, the admission window
// shifts to its maximum and back, and the crawl budget tightens three
// times (4096, then halving every cooldown) and relaxes to exact once.
func TestSLOControllerPhases(t *testing.T) {
	const target = time.Millisecond
	type actuators struct {
		p99, budget  time.Duration
		shift        int
		crawl        int64
		tight, relax int64
	}
	const floor = 62500 * time.Nanosecond
	phases := []struct {
		name    string
		observe time.Duration // refills the window; 0 keeps it
		ticks   int
		want    actuators
	}{
		{"meeting", target / 2, 8, actuators{target / 2, 2 * target, 0, 0, 0, 0}},
		{"overload", 5 * target, 8, actuators{5 * target, floor, 5, 4096, 1, 0}},
		{"sustained overload", 0, 16, actuators{5 * target, floor, 6, 1024, 3, 0}},
		{"recovered", target / 2, 40, actuators{target / 2, 2 * target, 0, 0, 3, 1}},
	}
	c := NewSLOController(target, 2*target)
	for _, ph := range phases {
		if ph.observe > 0 {
			fill(c, ph.observe)
		}
		for range ph.ticks {
			c.TickDecide()
		}
		st := c.Stats()
		got := actuators{st.LastP99, st.Budget, st.WindowShift, st.CrawlMaxVisited, st.Tightenings, st.Relaxations}
		if got != ph.want {
			t.Errorf("after %s: %+v, want %+v", ph.name, got, ph.want)
		}
	}
}

func TestAdmissionLimit(t *testing.T) {
	cases := []struct {
		workers, shift, want int
	}{
		{8, 0, 8},
		{8, 1, 4},
		{8, 3, 1},
		{8, 10, 1}, // shift clamps at sloMaxShift, floor 1
		{1, 0, 1},
		{1, 5, 1},
		{4, -1, 4},  // negative shift clamps to 0
		{64, 6, 1},  // max shift: 64 >> 6 = 1
		{256, 6, 4}, // large pools keep a few slots even at max shift
	}
	for _, c := range cases {
		if got := AdmissionLimit(c.workers, c.shift); got != c.want {
			t.Errorf("AdmissionLimit(%d, %d) = %d, want %d", c.workers, c.shift, got, c.want)
		}
	}
}

// TestSLOControllerEmptyWindow pins the cold-start behavior: with no
// observations the p99 is 0, which never exceeds a positive target, so
// the controller starts each run relaxed rather than shedding on boot.
func TestSLOControllerEmptyWindow(t *testing.T) {
	c := NewSLOController(time.Millisecond, time.Millisecond)
	dec := c.TickDecide()
	if dec.P99 != 0 || dec.Overloaded {
		t.Fatalf("cold tick = %+v, want p99 0 and not overloaded", dec)
	}
	if dec.Budget != time.Millisecond || dec.WindowShift != 0 || dec.CrawlMaxVisited != 0 {
		t.Fatalf("cold tick moved actuators: %+v", dec)
	}
}

// TestSLOControllerStatsRace drives the controller exactly the way the
// live pipeline does — query workers calling Observe, the writer ticking
// TickDecide — while another goroutine snapshots Stats, the shape of a
// Maintain hook reading the controller mid-run. Before Stats read the
// writer-owned fields atomically this was a real data race (run with
// -race; the CI regex matches SLO).
func TestSLOControllerStatsRace(t *testing.T) {
	c := NewSLOController(100*time.Microsecond, time.Millisecond)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // the Maintain-hook reader
		defer wg.Done()
		var sink SLOStats
		for {
			select {
			case <-stop:
				_ = sink
				return
			default:
				sink = c.Stats()
				runtime.Gosched()
			}
		}
	}()
	wg.Add(1)
	go func() { // a query worker observing latencies
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Observe(time.Duration(1+i%500) * time.Microsecond)
				runtime.Gosched()
			}
		}
	}()

	// The writer: tick with explicit yields so the reader goroutines
	// genuinely interleave with the writes even on GOMAXPROCS=1 (without
	// the yield, all ticks can finish before the readers are first
	// scheduled, and close(stop) would order every read after every
	// write — hiding the race from the detector).
	for tick := 0; tick < 200; tick++ {
		c.TickDecide()
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	st := c.Stats()
	if st.Ticks != 200 {
		t.Fatalf("ticks = %d, want 200", st.Ticks)
	}
	if st.Budget < st.MinBudget || st.Budget > st.MaxBudget {
		t.Fatalf("budget %v outside [%v, %v]", st.Budget, st.MinBudget, st.MaxBudget)
	}
}
