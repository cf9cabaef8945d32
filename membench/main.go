// Command membench is the repository benchmark. One invocation runs one
// named workload at one seed, checks that every output is correct, and
// prints its metrics as the last line of standard output:
//
//	membench --workload figures-trace --seed 7 --seconds 35 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	figures-trace  the 12 trace-driven experiment ids, as `memconsim -all` runs them, at scale 0.05
//	figures-chip   the 18 chip- and system-level ids at paper scale
//	serve          a memcond daemon over a seeded disk cache, driven in a closed loop
//
// With --trace 0 the run is untraced and reports the end-to-end
// metrics. With --trace 1 it records one span per harness call into a
// layer and reports the per-layer metrics; the spans, their self times
// and CPU profiles land in .bench_out/<workload>/seed-<n>/.
//
// run.sh builds this program and memcond from the checkout and runs it
// from the repository root.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// benchDir is this program's directory in the repository; outDir holds
// what runs leave behind.
const (
	benchDir = "membench"
	outDir   = ".bench_out"
)

var workloads = []string{"figures-trace", "figures-chip", "serve"}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		if err := runChild(os.Args[2]); err != nil {
			fmt.Fprintf(os.Stderr, "membench child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "membench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "membench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", b)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// harness is the state of one benchmark invocation.
type harness struct {
	root      string // repository root
	out       string // this run's output directory
	self      string // this executable, re-run as the figures process
	memcond   string // daemon binary, next to this executable
	workload  string
	seed      int64
	seconds   time.Duration
	traced    bool
	workers   int
	tiny      bool               // smallest inputs, for the smoke tests
	digestDir string             // report digests of earlier runs in this checkout
	rec       *Recorder          // nil when untraced
	samples   samples            // end-to-end values, one per pass or round
	extra     map[string]float64 // per-layer metrics not derived from spans
	params    any                // workload inputs, for the environment stamp

	attempted, failed int
	problems          map[string]int
}

// op counts one operation, failed when err is set.
func (h *harness) op(name string, err error) {
	h.attempted++
	if err != nil {
		h.failed++
		msg := name + ": " + err.Error()
		if h.problems[msg] == 0 {
			fmt.Fprintf(os.Stderr, "membench: FAIL %s\n", msg)
		}
		h.problems[msg]++
	}
}

// runID names a segment of this run in its spans.
func (h *harness) runID(part string) string {
	return fmt.Sprintf("%s/seed-%d/%s", h.workload, h.seed, part)
}

func run(ctx context.Context, args []string) (*result, error) {
	fs := flag.NewFlagSet("membench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's requests are generated from")
	seconds := fs.Int("seconds", 35, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want %s)", *workload, strings.Join(workloads, ", "))
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		return nil, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &harness{
		root:      root,
		out:       filepath.Join(root, outDir, *workload, fmt.Sprintf("seed-%d", *seed)),
		digestDir: filepath.Join(root, outDir, "digests"),
		self:      self,
		memcond:   filepath.Join(filepath.Dir(self), "memcond"),
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		traced:    *traceFlag == 1,
		workers:   runtime.NumCPU(),
		extra:     map[string]float64{},
		problems:  map[string]int{},
	}
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(h.memcond); err != nil {
		return nil, fmt.Errorf("memcond binary: %w (run.sh builds it)", err)
	}
	return h.run(ctx)
}

// run executes the workload and assembles the result.
func (h *harness) run(ctx context.Context) (*result, error) {
	if h.traced {
		h.rec = NewRecorder(h.runID("pass"), kindPass)
		f, err := os.Create(filepath.Join(h.out, "cpu-harness.pprof"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	h.samples = samples{}
	var err error
	if h.workload == "serve" {
		err = h.runServe(ctx)
	} else {
		err = h.runFigures(ctx)
	}
	if err != nil {
		return nil, err
	}
	if h.traced {
		if err := h.companions(ctx); err != nil {
			return nil, err
		}
		if err := h.runDrills(ctx, drillInput(h.workload, h.seed, h.tiny)); err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	if h.traced {
		h.extra["fail_frac"] = float64(h.failed) / float64(h.attempted)
		layer, missing := layerMetrics(h.rec, h.extra)
		for _, m := range missing {
			h.op(m, errors.New("traced run produced no value for this metric"))
		}
		for _, d := range perLayer {
			if v, ok := layer[d.Name]; ok {
				res.Metrics[d.Name] = metricValue{v, d.Unit}
			}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{median(h.samples[d.Name]), d.Unit}
		}
	}
	res.Attempted, res.Failed = h.attempted, h.failed
	res.Correct = h.failed == 0 && h.attempted > 0

	env := envStamp(h.root, h.workload, h.seed, int(h.seconds/time.Second), h.traced, h.params)
	if h.traced {
		if err := writeTrace(filepath.Join(h.out, "spans.json"), env, h.rec); err != nil {
			return nil, err
		}
	}
	if err := h.writeResult(env, res); err != nil {
		return nil, err
	}
	return res, nil
}

// companions runs the other two workloads at a tiny size, traced as
// companion spans, so a traced run reports every per-layer metric.
// Figures companions run at the golden settings, so they also check
// those ids against the committed reports.
func (h *harness) companions(ctx context.Context) error {
	for _, w := range workloads {
		if w == h.workload {
			continue
		}
		if w == "serve" {
			if _, err := h.serveRounds(ctx, newServePlan(h.seed, true), kindCompanion); err != nil {
				return err
			}
			continue
		}
		if err := h.goldenPass(ctx, figuresIDs(w), kindCompanion); err != nil {
			return err
		}
	}
	return nil
}

// writeResult stores the environment stamp, the result and any failures
// next to the run's other outputs, and prints the stamp before the
// result line.
func (h *harness) writeResult(env map[string]any, res *result) error {
	var problems []string
	for p := range h.problems {
		problems = append(problems, p)
	}
	sort.Strings(problems)
	doc := map[string]any{"env": env, "result": res, "samples": h.samples, "problems": problems}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := "result-trace0.json"
	if h.traced {
		name = "result-trace1.json"
	}
	if err := os.WriteFile(filepath.Join(h.out, name), b, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// findRoot returns the repository root: the working directory, or its
// parent when run from this directory (as `go test` does).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module memcon\n") {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root (no memcon go.mod found)")
}
