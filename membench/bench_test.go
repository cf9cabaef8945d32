package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"memcon/internal/experiments"
)

// memcondBin is the daemon TestMain builds for the smoke runs.
var memcondBin string

// TestMain doubles as the figures process: the smoke runs re-execute
// the test binary with -child, as the harness re-executes itself.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		if err := runChild(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "membench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	memcondBin = filepath.Join(dir, "memcond")
	if out, err := exec.Command("go", "build", "-o", memcondBin, "memcon/cmd/memcond").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building memcond: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\nharness:\n%+v", bj.EndToEnd, endToEnd)
	}
	var layer []metricDef
	for _, d := range perLayer {
		layer = append(layer, d.metricDef)
	}
	if !reflect.DeepEqual(bj.PerLayer, layer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%+v\nharness:\n%+v", bj.PerLayer, layer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("workloads in BENCHMARK.json %v, harness %v", names, workloads)
	}
	if !slices.Equal(bj.Paths, []string{benchDir}) || bj.Command[len(bj.Command)-1] != benchDir+"/run.sh" {
		t.Errorf("command %v / paths %v do not name %s", bj.Command, bj.Paths, benchDir)
	}
}

func TestWorkloadIDsCoverRegistry(t *testing.T) {
	all := append(append([]string{}, traceIDs...), chipIDs...)
	sort.Strings(all)
	if !slices.Equal(all, experiments.IDs()) {
		t.Errorf("trace and chip ids %v, registry %v", all, experiments.IDs())
	}
	for _, id := range traceIDs {
		if slices.Contains(chipIDs, id) {
			t.Errorf("%s is in both figures workloads", id)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range []string{"figures-trace", "figures-chip"} {
		if figuresBase(w, 1, false) == figuresBase(w, 2, false) {
			t.Errorf("%s: seeds 1 and 2 give the same requests", w)
		}
	}
	a, b := newServePlan(1, false), newServePlan(2, false)
	if reflect.DeepEqual(a, b) {
		t.Error("serve: seeds 1 and 2 give the same plan")
	}
	if reflect.DeepEqual(buildSequence(a), buildSequence(b)) {
		t.Error("serve: seeds 1 and 2 give the same request sequence")
	}
	if !reflect.DeepEqual(buildSequence(a), buildSequence(newServePlan(1, false))) {
		t.Error("serve: one seed gives two request sequences")
	}
}

func TestSequenceLayout(t *testing.T) {
	p := newServePlan(5, false)
	seq := buildSequence(p)
	if len(seq) != p.Requests {
		t.Fatalf("%d requests, want %d", len(seq), p.Requests)
	}
	touched := map[int]bool{}
	fresh := map[int]int{}
	for i, op := range seq {
		if op.key >= len(p.Seeded) {
			fresh[op.key]++
			if op.inm {
				t.Errorf("request %d revalidates a new key", i)
			}
			continue
		}
		if !touched[op.key] && op.inm {
			t.Errorf("request %d: first touch of seeded key %d revalidates", i, op.key)
		}
		touched[op.key] = true
	}
	if len(touched) != len(p.Seeded) || len(fresh) != len(p.Fresh[0]) {
		t.Errorf("touched %d seeded and %d fresh keys, want %d and %d", len(touched), len(fresh), len(p.Seeded), len(p.Fresh[0]))
	}
	for k, n := range fresh {
		if n != 1 {
			t.Errorf("new key %d sent %d times, want once", k, n)
		}
	}
	for i, op := range seq[len(seq)-len(fresh):] {
		if op.key < len(p.Seeded) {
			t.Errorf("request %d of the closing miss block repeats seeded key %d", i, op.key)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: union 10..60
		{ID: 4, Parent: 1, Start: 90, End: 130}, // runs past the parent: 90..100 counts
		{ID: 5, Parent: 2, Start: 15, End: 25},
		{ID: 6, Start: 200, End: 250},
	}
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 40, 5: 10, 6: 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestRecorderMerge(t *testing.T) {
	r := NewRecorder("run", kindPass)
	root, end := r.Start(0, "root")
	end()
	r.Merge([]Span{{ID: 1, Name: "a"}, {ID: 2, Parent: 1, Name: "b"}}, nil, root)
	spans, _ := r.snapshot()
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["a"].Parent != root || byName["b"].Parent != byName["a"].ID || byName["a"].ID == 1 {
		t.Errorf("merged spans %+v", spans)
	}
	var nilRec *Recorder
	if id, end := nilRec.Start(0, "x"); id != 0 {
		t.Error("nil recorder opened a span")
	} else {
		end()
	}
}

// smokeRun runs one workload at the tiny size through the same code
// path the benchmark takes.
func smokeRun(t *testing.T, workload string, seed int64, traced bool) *result {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	h := &harness{
		root: root, out: out, digestDir: out, self: self, memcond: memcondBin,
		workload: workload, seed: seed, seconds: time.Second, traced: traced, tiny: true,
		workers: runtime.NumCPU(), extra: map[string]float64{}, problems: map[string]int{},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h.run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d problems=%v", workload, res.Correct, res.Attempted, res.Failed, h.problems)
	}
	return res
}

// metricNames returns the run's metric names, and fails the test for
// a value that should be positive but is not.
func metricNames(t *testing.T, r *result) []string {
	t.Helper()
	// Values a healthy tiny run may leave at 0 or below: its failure
	// share, a tracing overhead within noise, and counters of events
	// the tiny round never provokes.
	mayBeZero := map[string]bool{"fail_frac": true, "tracing.overhead_s": true, "memcond.busy": true, "memcond.shared": true}
	var names []string
	for n, v := range r.Metrics {
		if v.Value <= 0 && !mayBeZero[n] {
			t.Errorf("metric %s = %v, want a positive value", n, v.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func wantNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var layer []metricDef
	for _, d := range perLayer {
		layer = append(layer, d.metricDef)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				if got := metricNames(t, smokeRun(t, w, seed, false)); !slices.Equal(got, wantNames(endToEnd)) {
					t.Errorf("seed %d untraced metrics %v, want %v", seed, got, wantNames(endToEnd))
				}
			}
			if got := metricNames(t, smokeRun(t, w, 3, true)); !slices.Equal(got, wantNames(layer)) {
				t.Errorf("traced metrics %v, want %v", got, wantNames(layer))
			}
		})
	}
}
