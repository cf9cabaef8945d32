package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"memcon/internal/core"
	"memcon/internal/disturb"
	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/fleet"
	"memcon/internal/memctrl"
	"memcon/internal/obs"
	"memcon/internal/pareto"
	"memcon/internal/pril"
	"memcon/internal/servecache"
	"memcon/internal/sim"
	"memcon/internal/softmc"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

// drillReps is how often a drill repeats a call whose metric is a
// median.
const drillReps = 3

// traceSet names the application traces a trace-layer drill works on.
type traceSet struct {
	Apps  []string
	Seed  int64
	Scale float64
}

// engineInput is the BenchmarkEngineRun and BenchmarkPRILObserve input
// (BENCH_engine.json).
var engineInput = traceSet{Apps: []string{"Netflix"}, Seed: 42, Scale: 0.05}

// drillInput returns the traces the workload's generate, sort,
// interval and fit drills use: the twelve apps at the workload's own
// (seed, scale) where it generates traces, the engine benchmark's
// input where it does not.
func drillInput(name string, seed int64, tiny bool) traceSet {
	var apps []string
	for _, a := range workload.Apps() {
		apps = append(apps, a.Name)
	}
	switch name {
	case "figures-trace":
		s := slotSeed(seed, 0) // the traced pass's seed
		return traceSet{Apps: apps, Seed: s, Scale: figuresBase(name, s, tiny).Scale}
	case "serve":
		fresh := newServePlan(seed, false).Fresh[0][0] // fig14, which shares its traces with fig17
		return traceSet{Apps: apps, Seed: fresh.Seed, Scale: fresh.Scale}
	}
	return engineInput
}

// runDrills times direct calls into each layer's public functions.
// Every drill also checks its result, and a wrong one fails the drill.
func (h *harness) runDrills(ctx context.Context, ts traceSet) error {
	h.rec.SetRun(h.runID("drills"), kindDrill)
	drills := []struct {
		name string
		fn   func() error
	}{
		{"trace", func() error { return h.drillTraces(ts) }},
		{"engine", h.drillEngine},
		{"readback", h.drillReadBack},
		{"disturb", h.drillDisturb},
		{"fleet", func() error { return h.drillFleet(ctx) }},
		{"sim", h.drillSim},
		{"servecache", h.drillServeCache},
	}
	for _, d := range drills {
		if err := ctx.Err(); err != nil {
			return err
		}
		h.op("drill."+d.name, d.fn())
	}
	return nil
}

// drillTraces generates each trace, re-sorts it from the page-major
// order Generate builds it in, and runs the interval analysis and the
// Pareto fit over it.
func (h *harness) drillTraces(ts traceSet) error {
	rec := h.rec
	for _, name := range ts.Apps {
		app, err := workload.AppByName(name)
		if err != nil {
			return err
		}
		_, end := rec.Start(0, "workload.generate")
		tr := app.Generate(ts.Seed, ts.Scale)
		end()
		rec.Add("workload.events", float64(len(tr.Events)))

		// Generate appends events page by page in increasing time, so
		// ordering by (page, time) restores the order Sort receives.
		pm := slices.Clone(tr.Events)
		slices.SortFunc(pm, func(a, b trace.Event) int {
			if a.Page != b.Page {
				return int(a.Page) - int(b.Page)
			}
			return int(a.At - b.At)
		})
		unsorted := &trace.Trace{Name: tr.Name, Duration: tr.Duration, Events: pm}
		_, end = rec.Start(0, "trace.sort")
		unsorted.Sort()
		end()
		if !slices.Equal(unsorted.Events, tr.Events) {
			return fmt.Errorf("%s: Sort of the page-major events differs from Generate", name)
		}

		_, end = rec.Start(0, "trace.intervals")
		ivs := tr.Intervals(true)
		end()
		_, end = rec.Start(0, "pareto.fit")
		fit, err := pareto.FitCCDFTail(ivs, nil, 64)
		end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !fit.Dist.Valid() {
			return fmt.Errorf("%s: invalid Pareto fit", name)
		}
	}
	return nil
}

// drillEngine runs the MEMCON engine and the PRIL predictor over the
// engine benchmark's trace.
func (h *harness) drillEngine() error {
	app, err := workload.AppByName(engineInput.Apps[0])
	if err != nil {
		return err
	}
	tr := app.Generate(engineInput.Seed, engineInput.Scale)
	reg := obs.NewRegistry()
	var first core.Report
	for i := 0; i < drillReps; i++ {
		var opts []core.EngineOption
		if i == 0 {
			opts = append(opts, core.WithObserver(obs.NewMetrics(reg)))
		}
		_, end := h.rec.Start(0, "core.engine")
		rep, err := core.RunWith(tr, core.DefaultConfig(), opts...)
		end()
		if err != nil {
			return err
		}
		if i == 0 {
			first = rep
		} else if rep.TestsStarted != first.TestsStarted || rep.Pril.Predictions != first.Pril.Predictions {
			return errors.New("engine runs over one trace disagree")
		}
	}
	queued := reg.Counter("memcon_tests_queued_total", "").Value()
	predictions := reg.Counter("memcon_predictions_total", "").Value()
	if queued != first.TestsStarted {
		return fmt.Errorf("engine counted %d queued tests, report says %d", queued, first.TestsStarted)
	}
	h.rec.Add("core.tests_queued", float64(queued))
	h.rec.Add("pril.predictions", float64(predictions))

	cfg := pril.Config{Quantum: 1024 * trace.Millisecond, NumPages: tr.MaxPage() + 1}
	for i := 0; i < drillReps; i++ {
		_, end := h.rec.Start(0, "pril.observe")
		_, st, err := pril.Run(tr, cfg)
		end()
		if err != nil {
			return err
		}
		if st.Writes != int64(len(tr.Events)) {
			return fmt.Errorf("PRIL observed %d writes of %d", st.Writes, len(tr.Events))
		}
	}
	return nil
}

// newChip builds the BENCH_hotpath.json chip: DefaultGeometry, seed 42.
func newChip() (*dram.Module, *faults.Model, error) {
	geom := dram.DefaultGeometry()
	model, err := faults.NewModel(geom, dram.NewScrambler(geom, 42, nil), 42, faults.DefaultParams())
	if err != nil {
		return nil, nil, err
	}
	mod, err := dram.NewModule(geom)
	return mod, model, err
}

// drillReadBack is BenchmarkReadBack/workers-1: a checkerboard fill,
// one characterization idle, one full read-back.
func (h *harness) drillReadBack() error {
	mod, model, err := newChip()
	if err != nil {
		return err
	}
	tester, err := softmc.NewTester(mod, model)
	if err != nil {
		return err
	}
	tester.SetParallelism(1)
	rows := -1
	for i := 0; i < drillReps; i++ {
		if err := tester.FillPattern(softmc.CheckerboardPattern(0)); err != nil {
			return err
		}
		tester.Idle(faults.CharacterizationIdle)
		_, end := h.rec.Start(0, "softmc.readback")
		fails := tester.ReadBack()
		end()
		if rows >= 0 && len(fails) != rows {
			return errors.New("read-backs of one pattern disagree")
		}
		rows = len(fails)
	}
	if rows == 0 {
		return errors.New("read-back found no failing rows")
	}
	h.rec.Add("faults.failing_rows", float64(rows))
	return nil
}

// drillDisturb is BenchmarkDisturbScan (BENCH_disturb.json): one
// AppendFailures query per victim row of random content at a hammer
// count inside the threshold range.
func (h *harness) drillDisturb() error {
	mod, model, err := newChip()
	if err != nil {
		return err
	}
	dm, err := disturb.NewModel(model, 42, disturb.DefaultParams())
	if err != nil {
		return err
	}
	g := mod.Geometry()
	rng := rand.New(rand.NewSource(1))
	buf := dram.NewRow(g.ColsPerRow)
	for bank := 0; bank < g.BanksPerChip; bank++ {
		for r := 0; r < g.RowsPerBank; r++ {
			buf.Randomize(rng)
			if err := mod.WriteRow(dram.RowAddress{Bank: bank, Row: r}, buf, 0); err != nil {
				return err
			}
		}
	}
	w := faults.RowWindow{Hammer: 22_600}
	cells := make([]int, 0, 8)
	flipped := -1
	for i := 0; i < drillReps; i++ {
		n := 0
		_, end := h.rec.Start(0, "disturb.scan")
		for bank := 0; bank < g.BanksPerChip; bank++ {
			rows, _ := dm.VictimRows(bank)
			for _, r := range rows {
				cells = dm.AppendFailures(cells[:0], mod, dram.RowAddress{Bank: bank, Row: int(r)}, w)
				if len(cells) > 0 {
					n++
				}
			}
		}
		end()
		if flipped >= 0 && n != flipped {
			return errors.New("disturb scans of one module disagree")
		}
		flipped = n
	}
	if flipped == 0 {
		return errors.New("disturb scan flipped no rows")
	}
	return nil
}

// drillFleet is BenchmarkFleetRun/workers-1 and BenchmarkFleetAnalyze
// (BENCH_fleet.json): 64 modules, seed 42, scale 0.05.
func (h *harness) drillFleet(ctx context.Context) error {
	cfg := fleet.Config{Modules: 64, Seed: 42, Scale: 0.05, Workers: 1}
	var log *fleet.Log
	for i := 0; i < drillReps; i++ {
		_, end := h.rec.Start(0, "fleet.run")
		l, err := fleet.Run(ctx, cfg)
		end()
		if err != nil {
			return err
		}
		if log != nil && len(l.Events) != len(log.Events) {
			return errors.New("fleet runs of one seed disagree")
		}
		log = l
	}
	h.rec.Add("fleet.events", float64(len(log.Events)))
	for i := 0; i < drillReps; i++ {
		_, end := h.rec.Start(0, "fleet.analyze")
		an := fleet.Analyze(log)
		end()
		if an.UniqueCells == 0 {
			return errors.New("fleet analysis found no cells")
		}
	}
	return nil
}

// drillSim runs one four-core mix at paper simulated time against the
// Fig. 15 baseline and a 75%-reduction MEMCON configuration.
func (h *harness) drillSim() error {
	const simTime = 500_000
	mix := workload.Mixes(1, 4, 42)[0]
	base := memctrl.DefaultConfig()
	base.Seed, base.RefreshPostponeProb = 42, 0.5
	scheme := base
	period, err := memctrl.StretchedRefreshPeriod(dram.RefreshWindowAggressive, 0.75)
	if err != nil {
		return err
	}
	scheme.RefreshPeriod, scheme.TestsPerWindow = period, 256
	var speedup float64
	for i := 0; i < drillReps; i++ {
		_, end := h.rec.Start(0, "sim.mix")
		speedup, err = sim.MixSpeedup(mix, base, scheme, simTime, 42)
		end()
		if err != nil {
			return err
		}
	}
	b, err := sim.Run(sim.Config{Mix: mix, Mem: base, SimTime: simTime, Seed: 42})
	if err != nil {
		return err
	}
	s, err := sim.Run(sim.Config{Mix: mix, Mem: scheme, SimTime: simTime, Seed: 42})
	if err != nil {
		return err
	}
	h.rec.Add("memctrl.accesses", float64(b.Mem.Requests+s.Mem.Requests))
	want, err := sim.WeightedSpeedup(b, s)
	if err != nil {
		return err
	}
	if want != speedup {
		return fmt.Errorf("MixSpeedup %v differs from its two runs' weighted speedup %v", speedup, want)
	}
	return nil
}

// drillServeCache prices the cache tiers on the BenchmarkServeCache
// input (BENCH_serve.json): 64 keys of 4 KiB.
func (h *harness) drillServeCache() error {
	const keys, probes = 64, 200_000
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	ks := make([]servecache.Key, keys)
	for i := range ks {
		binary.LittleEndian.PutUint64(ks[i][:], uint64(i)*0x9e3779b97f4a7c15)
	}

	mem := servecache.NewWithOptions(servecache.Options{Shards: 16})
	for _, k := range ks {
		mem.Put(k, nil, payload)
	}
	for i := 0; i < drillReps; i++ {
		_, end := h.rec.Start(0, "servecache.probe")
		hits := 0
		for j := 0; j < probes; j++ {
			if _, o, ok := mem.Probe(ks[j%keys]); ok && o == servecache.Hit {
				hits++
			}
		}
		end()
		h.rec.Add("servecache.probe_ops", probes)
		if hits != probes {
			return fmt.Errorf("%d of %d probes of resident keys hit", hits, probes)
		}
	}

	dir := filepath.Join(h.out, "drill-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := servecache.OpenStore(dir, 0)
	if err != nil {
		return err
	}
	tiered := servecache.NewWithOptions(servecache.Options{Shards: 16, Store: store})
	for _, k := range ks {
		_, end := h.rec.Start(0, "servecache.put")
		tiered.Put(k, nil, payload)
		end()
	}
	for _, k := range ks {
		_, end := h.rec.Start(0, "servecache.disk_get")
		_, data, ok := store.Get(k)
		end()
		if !ok || string(data) != string(payload) {
			return errors.New("disk tier lost a written entry")
		}
	}
	for i := 0; i < drillReps; i++ {
		fresh, err := servecache.OpenStore(dir, 0)
		if err != nil {
			return err
		}
		_, end := h.rec.Start(0, "servecache.scan")
		n, err := fresh.Scan()
		end()
		if err != nil {
			return err
		}
		if n != keys {
			return fmt.Errorf("scan indexed %d of %d entries", n, keys)
		}
	}
	return nil
}
