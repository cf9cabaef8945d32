package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is set
// only for end-to-end metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports, on every workload.
// For the figures workloads an operation is one experiment id (dispatch
// to rendered report) and the process doing the work is the fresh
// figures process; for serve an operation is one HTTP request and that
// process is the memcond daemon.
//
// Every bound is 0.25, the largest allowed: on the 2-vCPU virtual
// machine the benchmark was defined on, the speed of memory-heavy work
// drifted by up to 20% over minutes, and the spread of a metric over
// ten runs reached 18% (figures-trace wall_s) in a busy hour, against
// 1-9% in a quiet one (README.md has the table).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "req_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "req_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// traceIDs are the experiment ids that generate application traces;
// chipIDs are the rest of the registry. Together they are every id,
// which the tests check against experiments.IDs.
var (
	traceIDs = []string{"fig7", "fig8", "fig9", "fig11", "fig12", "fig14", "fig17", "fig18", "fig19", "energy", "abl-buffer", "abl-pril"}
	chipIDs  = []string{"fig3", "fig4", "vrt", "profile", "motiv", "abl-remap", "abl-accel", "fleet-ce", "fleet-risk",
		"disturb-exposure", "disturb-mitigation", "fig15", "fig16", "table3", "loop", "minwi", "table1", "fig6"}
)

// samples holds one value per pass (figures) or round (serve) of each
// end-to-end metric; a run reports their medians.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// layerDef is one per-layer metric and how a traced run derives it from
// its spans and values.
type layerDef struct {
	metricDef
	value func(v *view) (float64, bool)
}

// Span sources in the order a per-layer metric looks for them: the
// workload's own traced pass, then the layer drills, then the tiny
// companion passes of the other workloads that exist only so every
// traced run emits every per-layer metric.
const (
	kindPass      = "pass"
	kindDrill     = "drill"
	kindCompanion = "companion"
)

var kindOrder = []string{kindPass, kindDrill, kindCompanion}

// perLayer is the per-layer metric table. The serve-only latency
// splits (hit_p50_ms, miss_p50_ms) live here rather than in endToEnd
// because the figures workloads have no cache tiers to split by.
var perLayer = func() []layerDef {
	var defs []layerDef
	add := func(name, unit, better string, f func(v *view) (float64, bool)) {
		defs = append(defs, layerDef{metricDef{Name: name, Unit: unit, Better: better}, f})
	}
	for _, id := range append(append([]string{}, traceIDs...), chipIDs...) {
		add("experiments."+id+"_ms", "ms", "lower", sumMs("experiments."+id))
	}
	add("parallel.busy_frac", "ratio", "higher", meanValue("parallel.busy_frac"))
	add("workload.generate_ms", "ms", "lower", sumMs("workload.generate"))
	add("workload.events", "count", "lower", sumValue("workload.events"))
	add("trace.sort_ms", "ms", "lower", sumMs("trace.sort"))
	add("trace.intervals_ms", "ms", "lower", sumMs("trace.intervals"))
	add("pareto.fit_ms", "ms", "lower", sumMs("pareto.fit"))
	add("core.engine_ms", "ms", "lower", medianMs("core.engine"))
	add("pril.observe_ms", "ms", "lower", medianMs("pril.observe"))
	add("core.tests_queued", "count", "lower", sumValue("core.tests_queued"))
	add("pril.predictions", "count", "lower", sumValue("pril.predictions"))
	add("softmc.readback_ms", "ms", "lower", medianMs("softmc.readback"))
	add("faults.failing_rows", "count", "lower", sumValue("faults.failing_rows"))
	add("disturb.scan_ms", "ms", "lower", medianMs("disturb.scan"))
	add("fleet.run_ms", "ms", "lower", medianMs("fleet.run"))
	add("fleet.analyze_ms", "ms", "lower", medianMs("fleet.analyze"))
	add("fleet.events", "count", "lower", sumValue("fleet.events"))
	add("sim.mix_ms", "ms", "lower", medianMs("sim.mix"))
	add("memctrl.accesses", "count", "lower", sumValue("memctrl.accesses"))
	add("report.build_ms", "ms", "lower", sumMs("report.build"))
	add("report.encode_ms", "ms", "lower", sumMs("report.encode"))
	add("report.text_ms", "ms", "lower", sumMs("report.text"))
	add("servecache.probe_ns", "ns", "lower", perOpNs("servecache.probe", "servecache.probe_ops"))
	add("servecache.disk_get_us", "us", "lower", medianUs("servecache.disk_get"))
	add("servecache.put_us", "us", "lower", medianUs("servecache.put"))
	add("servecache.scan_ms", "ms", "lower", medianMs("servecache.scan"))
	for _, c := range [][2]string{{"hits", "higher"}, {"disk_hits", "lower"}, {"misses", "lower"},
		{"not_modified", "higher"}, {"shared", "lower"}, {"busy", "lower"}} {
		add("memcond."+c[0], "count", c[1], sumValue("memcond."+c[0]))
	}
	add("memcond.hit_ratio", "ratio", "higher", meanValue("memcond.hit_ratio"))
	add("hit_p50_ms", "ms", "lower", medianMs("memcond.request.hit"))
	add("miss_p50_ms", "ms", "lower", medianMs("memcond.request.miss"))
	// Filled from the run itself, not from spans (see layerMetrics).
	add("fail_frac", "ratio", "lower", nil)
	add("tracing.overhead_s", "s", "lower", nil)
	return defs
}()

// view is the slice of a traced run's record that one span source
// produced.
type view struct {
	spans  []Span
	values []Value
}

func (v *view) durations(name string) []float64 {
	var out []float64
	for _, s := range v.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (v *view) valueList(name string) []float64 {
	var out []float64
	for _, x := range v.values {
		if x.Name == name {
			out = append(out, x.V)
		}
	}
	return out
}

func sumMs(name string) func(*view) (float64, bool) {
	return func(v *view) (float64, bool) {
		d := v.durations(name)
		return sum(d) / 1e6, len(d) > 0
	}
}

func medianMs(name string) func(*view) (float64, bool) {
	return func(v *view) (float64, bool) {
		d := v.durations(name)
		return median(d) / 1e6, len(d) > 0
	}
}

func medianUs(name string) func(*view) (float64, bool) {
	return func(v *view) (float64, bool) {
		d := v.durations(name)
		return median(d) / 1e3, len(d) > 0
	}
}

// perOpNs divides the time spent in spans of name by the operation
// count recorded under ops, for calls too short to span one by one.
func perOpNs(name, ops string) func(*view) (float64, bool) {
	return func(v *view) (float64, bool) {
		d, n := v.durations(name), sum(v.valueList(ops))
		return sum(d) / n, len(d) > 0 && n > 0
	}
}

func sumValue(name string) func(*view) (float64, bool) {
	return func(v *view) (float64, bool) {
		x := v.valueList(name)
		return sum(x), len(x) > 0
	}
}

func meanValue(name string) func(*view) (float64, bool) {
	return func(v *view) (float64, bool) {
		x := v.valueList(name)
		return sum(x) / float64(len(x)), len(x) > 0
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// median returns the middle value (the mean of the two middle values
// for an even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// layerMetrics derives every per-layer metric from a traced run's
// record: each takes its value from the first span source, in
// kindOrder, that produced it. A metric no source produced is reported
// as missing so the caller can count it as a failure.
func layerMetrics(rec *Recorder, extra map[string]float64) (map[string]float64, []string) {
	views := map[string]*view{}
	for _, k := range kindOrder {
		views[k] = &view{}
	}
	spans, values := rec.snapshot()
	for _, s := range spans {
		if v := views[s.Kind]; v != nil {
			v.spans = append(v.spans, s)
		}
	}
	for _, x := range values {
		if v := views[x.Kind]; v != nil {
			v.values = append(v.values, x)
		}
	}
	out := map[string]float64{}
	var missing []string
	for _, d := range perLayer {
		if d.value == nil {
			if x, ok := extra[d.Name]; ok {
				out[d.Name] = x
			} else {
				missing = append(missing, d.Name)
			}
			continue
		}
		found := false
		for _, k := range kindOrder {
			if x, ok := d.value(views[k]); ok && !math.IsNaN(x) {
				out[d.Name], found = x, true
				break
			}
		}
		if !found {
			missing = append(missing, d.Name)
		}
	}
	return out, missing
}
