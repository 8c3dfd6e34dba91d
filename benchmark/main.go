// Command benchmark is the repository's end-to-end benchmark: four named
// workloads, an end-to-end scoreboard and an outside-in per-layer budget
// (README.md in this directory explains every name).
//
// One run, as the benchmark driver makes it — the last line of standard
// output is the result object:
//
//	bash benchmark/run.sh --workload serve-uniform --seed 1 --seconds 16 --trace 0
//
// Everything, for a person — per workload 3 measured passes (medians and
// spreads) and one traced pass with the blocking-path budget:
//
//	bash benchmark/run.sh [-workload NAME] [-seed N] [-repeat 2] [-out DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all): "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; the system under test receives only the generated inputs")
	seconds := flag.Int("seconds", 16, "measured seconds per pass")
	trace := flag.Int("trace", -1, "0 = one measured pass, 1 = one traced pass (both print a result object as the last line); -1 = the whole suite")
	repeat := flag.Int("repeat", 1, "suite: run it this many times and compare each set with the first against the bounds")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for result and trace files")
	flag.Parse()

	// Pinned so that a bigger box measures the same program; recorded in
	// every result file.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	start := time.Now()
	if *trace >= 0 {
		if *workload == "" {
			fatal(fmt.Errorf("-trace %d needs -workload", *trace))
		}
		cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *out, Log: os.Stdout}
		res, err := runOnce(cfg)
		if err != nil {
			fatal(err)
		}
		printMetrics(os.Stdout, res)
		name := fmt.Sprintf("run-%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, *trace)
		if err := writeResultFile(filepath.Join(*out, name), start, *seed, []*runResult{res}); err != nil {
			fatal(err)
		}
		fmt.Println(resultLine(res))
		if res.Invalid != "" {
			fatal(fmt.Errorf("%s: invalid run: %s", cfg.Workload, res.Invalid))
		}
		if !res.Correct {
			fatal(fmt.Errorf("%s: %d of %d sampled answers differ from brute force", cfg.Workload, res.Mismatch, res.Verified))
		}
		return
	}

	names := workloadNames()
	if *workload != "" {
		names = strings.Split(*workload, ",")
	}
	ok, err := suite(names, *seed, *seconds, *repeat, *out, start)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// resultLine is the driver's result object.
func resultLine(res *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	metrics := make(map[string]value, len(specs))
	for _, m := range specs {
		metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(err) // only a NaN or Inf metric can do this
	}
	return string(b)
}

// printMetrics lists a run's metrics; beside a timing taken at reference
// speed, its unscaled value and how far its windows' own values spread
// (their IQR / median).
func printMetrics(w io.Writer, res *runResult) {
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	for _, m := range specs {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", m.Name, res.Metrics[m.Name], m.Unit)
		if raw, ok := res.Raw[m.Name]; ok && !res.Trace {
			fmt.Fprintf(w, " unscaled %14.4f, windows spread %5.1f %%", raw, 100*res.WindowSpread[m.Name])
		}
		fmt.Fprintln(w)
	}
}

// measuredReps is how many measured passes the suite makes per workload;
// the reported value of a metric is their median.
const measuredReps = 3

// suite runs the chosen workloads `repeat` times: per workload
// measuredReps measured passes, then one traced pass. It reports whether
// every run was correct and every later set stayed within the bounds of
// the first. A metric whose passes spread wider than its bound in either
// set is unresolved: the comparison cannot tell a change that size from
// the box.
func suite(names []string, seed int64, seconds, repeat int, out string, start time.Time) (bool, error) {
	ok := true
	var all []*runResult
	type summary struct{ median, spread map[string]float64 }
	first := make(map[string]summary) // workload -> the first set's
	for set := 0; set < repeat; set++ {
		for _, name := range names {
			fmt.Printf("== set %d/%d  %s  seed %d  %d x %d s measured + 1 traced\n", set+1, repeat, name, seed, measuredReps, seconds)
			values := make(map[string][]float64)
			for rep := 0; rep <= measuredReps; rep++ {
				cfg := runConfig{Workload: name, Seed: seed, Seconds: seconds, Trace: rep == measuredReps, OutDir: out, Log: os.Stdout}
				res, err := runOnce(cfg)
				if err != nil {
					return false, err
				}
				all = append(all, res)
				if res.Invalid != "" {
					fmt.Printf("  INVALID: %s\n", res.Invalid)
				}
				ok = ok && res.Correct
				printMetrics(os.Stdout, res)
				if !cfg.Trace {
					for k, v := range res.Metrics {
						values[k] = append(values[k], v)
					}
				}
			}
			fmt.Printf("  %-34s %14s %-6s %s\n", "end-to-end metric", "median", "unit", "(max-min)/median")
			sum := summary{make(map[string]float64), make(map[string]float64)}
			for _, m := range endToEnd {
				sum.median[m.Name], sum.spread[m.Name] = median(values[m.Name]), spread(values[m.Name])
				fmt.Printf("  %-34s %14.4f %-6s %5.1f %%\n", m.Name, sum.median[m.Name], m.Unit, 100*sum.spread[m.Name])
			}
			if set == 0 {
				first[name] = sum
				continue
			}
			for _, m := range endToEnd {
				base := first[name]
				w := worseBy(m, base.median[m.Name], sum.median[m.Name])
				verdict := "ok"
				switch {
				case w > m.Bound:
					verdict, ok = "BREACH", false
				case base.spread[m.Name] > m.Bound || sum.spread[m.Name] > m.Bound:
					verdict = "unresolved"
				}
				fmt.Printf("  set %d vs 1  %-22s %14.4f vs %14.4f  worse by %+6.1f %% (bound %4.1f %%)  %s\n",
					set+1, m.Name, sum.median[m.Name], base.median[m.Name], 100*w, 100*m.Bound, verdict)
			}
		}
	}
	return ok, writeResultFile(filepath.Join(out, "result.json"), start, seed, all)
}

// writeResultFile records the runs with everything needed to compare them
// with another box's: toolchain, parallelism, commit, seed, raw values.
func writeResultFile(path string, start time.Time, seed int64, runs []*runResult) error {
	commit := "unknown" // a checkout without .git, or no git on the path
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	b, err := json.MarshalIndent(struct {
		GoVersion  string       `json:"go_version"`
		GOMAXPROCS int          `json:"gomaxprocs"`
		NumCPU     int          `json:"nproc"`
		Commit     string       `json:"git_commit"`
		Seed       int64        `json:"seed"`
		WallS      float64      `json:"wall_s"`
		Runs       []*runResult `json:"runs"`
	}{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, seed, time.Since(start).Seconds(), runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
