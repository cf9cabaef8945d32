package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"memcon/internal/experiments"
	"memcon/internal/parallel"
)

// passPlan is the work of one figures process: a set of experiment ids
// run the way `memconsim -all` runs them, with parallel.Map across ids
// and one worker inside each.
type passPlan struct {
	IDs       []string            `json:"ids"`
	Base      experiments.Request `json:"base"`
	Workers   int                 `json:"workers"`
	Trace     bool                `json:"trace"`
	SetupOnly bool                `json:"setup_only,omitempty"`
	Run       string              `json:"run"`
	Kind      string              `json:"kind"`
	Profile   string              `json:"profile,omitempty"`
}

// idResult is one experiment id's outcome in a figures process.
type idResult struct {
	ID        string `json:"id"`
	Err       string `json:"err,omitempty"`
	LatencyNs int64  `json:"latency_ns"`
	JSON      string `json:"json_sha256"`
	Text      string `json:"text_sha256"`
}

// childResult is what a figures process reports on its last stdout
// line.
type childResult struct {
	DispatchNs int64      `json:"dispatch_ns"`
	PeakRSSMB  float64    `json:"peak_rss_mb"`
	IDs        []idResult `json:"ids"`
	Spans      []Span     `json:"spans,omitempty"`
	Values     []Value    `json:"values,omitempty"`
}

// goldenBase holds the settings of the committed reference reports
// under testdata/reports and cmd/memconsim/testdata/golden_all.txt.
var goldenBase = experiments.Request{Seed: 42, Scale: 0.05, SimTimeNs: 200_000, Mixes: 3}

// figuresIDs returns the workload's ids in registry order, the order
// `memconsim -all` dispatches them in.
func figuresIDs(workload string) []string {
	set := traceIDs
	if workload == "figures-chip" {
		set = chipIDs
	}
	var ids []string
	for _, id := range experiments.IDs() {
		if slices.Contains(set, id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// figuresBase returns the request settings of a figures workload:
// trace ids at scale 0.05, chip ids at paper scale, or both at the
// golden settings for the tiny size.
func figuresBase(workload string, seed int64, tiny bool) experiments.Request {
	r := experiments.DefaultRequest("")
	switch {
	case tiny:
		r = goldenBase
	case workload == "figures-trace":
		r.Scale = 0.05
	}
	r.Seed = seed
	return r
}

// runChild is the body of a figures process.
func runChild(planJSON string) error {
	var p passPlan
	if err := json.Unmarshal([]byte(planJSON), &p); err != nil {
		return fmt.Errorf("decoding plan: %w", err)
	}
	if p.Profile != "" {
		f, err := os.Create(p.Profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	var rec *Recorder
	if p.Trace {
		rec = NewRecorder(p.Run, p.Kind)
	}
	reqs := make([]experiments.Request, len(p.IDs))
	for i, id := range p.IDs {
		reqs[i] = p.Base
		reqs[i].Experiment = id
		if err := reqs[i].Normalize(); err != nil {
			return err
		}
	}
	// Pool stats ride only on the context of the outer map: the runs
	// inside get the bare context, so their own sweeps do not add to
	// the utilization of the pool across ids.
	ctx := context.Background()
	mapCtx := ctx
	var pool *parallel.PoolStats
	if rec != nil {
		pool = parallel.NewPoolStats()
		mapCtx = parallel.ContextWithStats(ctx, pool)
	}
	out := childResult{DispatchNs: time.Now().UnixNano()}
	if !p.SetupOnly {
		root, end := rec.Start(0, "figures.pass")
		t0 := time.Now()
		res, err := parallel.Map(mapCtx, len(reqs), p.Workers, func(i int) (idResult, error) {
			return runID(ctx, rec, root, reqs[i]), nil
		})
		wall := time.Since(t0)
		end()
		if err != nil {
			return err
		}
		out.IDs = res
		if pool != nil {
			var busy int64
			for _, w := range pool.Workers() {
				busy += w.BusyNs
			}
			rec.Add("parallel.busy_frac", float64(busy)/float64(int64(parallel.Workers(min(p.Workers, len(reqs))))*wall.Nanoseconds()))
		}
	}
	if rec != nil {
		out.Spans, out.Values = rec.snapshot()
	}
	var err error
	if out.PeakRSSMB, err = vmHWM("self"); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// runID runs one experiment id and renders its report both ways
// `memconsim` does: the text `-all` prints and the canonical JSON
// `-out` writes.
func runID(ctx context.Context, rec *Recorder, parent int64, req experiments.Request) idResult {
	r := idResult{ID: req.Experiment}
	t0 := time.Now()
	_, end := rec.Start(parent, "experiments."+req.Experiment)
	res, err := experiments.RunRequest(ctx, req, experiments.Runtime{Workers: 1})
	end()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	_, end = rec.Start(parent, "report.build")
	rep := res.Report()
	end()
	_, end = rec.Start(parent, "report.text")
	text := fmt.Sprintf("==== %s ====\n%s\n", req.Experiment, rep.Text())
	end()
	_, end = rec.Start(parent, "report.encode")
	js, err := rep.MarshalCanonical()
	end()
	r.LatencyNs = time.Since(t0).Nanoseconds()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.JSON, r.Text = digest(js), digest([]byte(text))
	return r
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// procStats is what the harness measures of one finished process.
type procStats struct {
	wall  time.Duration
	cpu   time.Duration
	rssMB float64 // VmHWM
}

// vmHWM reads a live process's peak resident set size in MiB. The
// rusage of a finished child cannot stand in for it: on exec Linux
// folds the parent's peak into the child's ru_maxrss.
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// passOutcome is one figures process as the harness saw it.
type passOutcome struct {
	procStats
	setup time.Duration // exec until the first id is dispatched
	child childResult
}

// spawnPass runs one fresh figures process.
func (h *harness) spawnPass(ctx context.Context, p passPlan) (passOutcome, error) {
	planJSON, err := json.Marshal(p)
	if err != nil {
		return passOutcome{}, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, h.self, "-child", string(planJSON))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	startNs := time.Now().UnixNano()
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return passOutcome{}, fmt.Errorf("figures process: %w", err)
	}
	ps := cmd.ProcessState
	out := passOutcome{procStats: procStats{wall: wall, cpu: ps.UserTime() + ps.SystemTime()}}
	line := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if err := json.Unmarshal(line, &out.child); err != nil {
		return passOutcome{}, fmt.Errorf("figures process output: %w", err)
	}
	out.rssMB = out.child.PeakRSSMB
	out.setup = time.Duration(out.child.DispatchNs - startNs)
	return out, nil
}

// setupLaunches is how many extra processes a figures run starts only
// to time set-up, so its setup_s is a median over enough samples.
const setupLaunches = 10

// seedSlots is how many request seeds a figures run derives from its
// own: pass i runs at slot i mod seedSlots. The cost and memory of a
// pass depend on its seed, so spreading a run over several seeds keeps
// one seed's inputs from setting the run's medians, while passes that
// share a slot still check each other's bytes.
const seedSlots = 4

// slotSeed is the request seed of a figures seed slot.
func slotSeed(seed int64, slot int) int64 { return parallel.Seed(seed, slot) }

// runFigures measures a figures workload: fresh processes, one after
// another, until the run's time is up.
func (h *harness) runFigures(ctx context.Context) error {
	plans := make([]passPlan, seedSlots)
	for k := range plans {
		plans[k] = passPlan{IDs: figuresIDs(h.workload), Base: figuresBase(h.workload, slotSeed(h.seed, k), h.tiny), Workers: h.workers}
	}
	h.params = plans
	refs := make([][]idResult, seedSlots)
	record := func(k int, p passOutcome) {
		h.samples.add("setup_s", p.setup.Seconds())
		h.samples.add("wall_s", p.wall.Seconds())
		h.samples.add("cpu_s", p.cpu.Seconds())
		h.samples.add("peak_rss_mb", p.rssMB)
		h.samples.add("rps", float64(len(p.child.IDs))/p.wall.Seconds())
		var lats []float64
		for _, r := range p.child.IDs {
			lats = append(lats, float64(r.LatencyNs)/1e6)
		}
		h.samples.add("req_p50_ms", median(lats))
		h.samples.add("req_p99_ms", percentile(lats, 99))
		refs[k] = h.checkPass(p.child.IDs, refs[k])
	}

	if h.traced {
		p, err := h.spawnPass(ctx, plans[0])
		if err != nil {
			return err
		}
		record(0, p)
		tp := plans[0]
		tp.Trace, tp.Run, tp.Kind = true, h.runID("pass"), kindPass
		tp.Profile = filepath.Join(h.out, "cpu-pass.pprof")
		t, err := h.spawnPass(ctx, tp)
		if err != nil {
			return err
		}
		h.rec.Merge(t.child.Spans, t.child.Values, 0)
		h.extra["tracing.overhead_s"] = t.wall.Seconds() - p.wall.Seconds()
		refs[0] = h.checkPass(t.child.IDs, refs[0])
	} else {
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < h.seconds; i++ {
			p, err := h.spawnPass(ctx, plans[i%seedSlots])
			if err != nil {
				return err
			}
			record(i%seedSlots, p)
		}
		setupPlan := plans[0]
		setupPlan.SetupOnly = true
		for i := 0; i < setupLaunches; i++ {
			p, err := h.spawnPass(ctx, setupPlan)
			if err != nil {
				return err
			}
			h.samples.add("setup_s", p.setup.Seconds())
		}
	}
	h.checkRepeatable(refs)
	return h.goldenPass(ctx, plans[0].IDs, "")
}

// checkPass counts each id of a pass as one operation: it fails on an
// error or when its report bytes differ from those of the first pass
// at the same seed.
func (h *harness) checkPass(got, ref []idResult) []idResult {
	for i, r := range got {
		var err error
		switch {
		case r.Err != "":
			err = errors.New(r.Err)
		case ref != nil && (ref[i].ID != r.ID || ref[i].JSON != r.JSON || ref[i].Text != r.Text):
			err = errors.New("report bytes differ between passes at the same seed")
		}
		h.op(r.ID, err)
	}
	if ref == nil {
		return got
	}
	return ref
}

// checkRepeatable compares this run's report digests with those an
// earlier run at the same workload and seed left in the checkout, and
// saves them for the next run.
func (h *harness) checkRepeatable(refs [][]idResult) {
	digests := map[string]string{}
	for k, ids := range refs {
		for _, r := range ids {
			digests[fmt.Sprintf("slot-%d/%s", k, r.ID)] = r.JSON
		}
	}
	h.compareDigests(digests)
}

func (h *harness) compareDigests(digests map[string]string) {
	path := filepath.Join(h.digestDir, fmt.Sprintf("%s-seed-%d.json", h.workload, h.seed))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]string
		if json.Unmarshal(b, &prev) == nil {
			for k, d := range digests {
				if p, ok := prev[k]; ok {
					h.op(k, errorIf(p != d, "output differs from an earlier run at the same seed"))
				}
			}
		}
	}
	if b, err := json.Marshal(digests); err == nil {
		os.MkdirAll(filepath.Dir(path), 0o755)
		os.WriteFile(path, b, 0o644)
	}
}

// goldenPass re-renders ids at the golden settings in a fresh process
// and byte-compares them with the committed reports. A non-empty kind
// also traces the pass as a companion.
func (h *harness) goldenPass(ctx context.Context, ids []string, kind string) error {
	p := passPlan{IDs: ids, Base: goldenBase, Workers: h.workers}
	if kind != "" {
		p.Trace, p.Run, p.Kind = true, h.runID("golden"), kind
	}
	out, err := h.spawnPass(ctx, p)
	if err != nil {
		return err
	}
	h.rec.Merge(out.child.Spans, out.child.Values, 0)
	segments, err := goldenText(h.root)
	if err != nil {
		return err
	}
	for _, r := range out.child.IDs {
		if r.Err != "" {
			h.op(r.ID, errors.New(r.Err))
			continue
		}
		want, err := os.ReadFile(filepath.Join(h.root, "testdata", "reports", r.ID+".json"))
		if err != nil {
			return err
		}
		switch {
		case digest(want) != r.JSON:
			h.op(r.ID, errors.New("golden JSON report differs from testdata/reports"))
		case digest([]byte(segments[r.ID])) != r.Text:
			h.op(r.ID, errors.New("golden text report differs from golden_all.txt"))
		default:
			h.op(r.ID, nil)
		}
	}
	return nil
}

var goldenMarker = regexp.MustCompile(`(?m)^==== (\S+) ====$`)

// goldenText splits golden_all.txt into the per-id segments `-all`
// prints: the marker line, the text report and a blank line.
func goldenText(root string) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, "cmd", "memconsim", "testdata", "golden_all.txt"))
	if err != nil {
		return nil, err
	}
	marks := goldenMarker.FindAllSubmatchIndex(b, -1)
	out := make(map[string]string, len(marks))
	for i, m := range marks {
		end := len(b)
		if i+1 < len(marks) {
			end = marks[i+1][0]
		}
		out[string(b[m[2]:m[3]])] = string(b[m[0]:end])
	}
	return out, nil
}

func errorIf(cond bool, msg string) error {
	if cond {
		return errors.New(msg)
	}
	return nil
}
