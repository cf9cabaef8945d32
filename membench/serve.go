package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memcon/internal/experiments"
	"memcon/internal/parallel"
	"memcon/internal/servecache"
)

// servePlan is one serve workload: keys the harness writes into the
// daemon's disk cache before timing starts, sets of keys no tier holds
// (round r sends set r mod len(Fresh), and each of its keys runs an
// experiment), and the length of a round's request sequence.
type servePlan struct {
	Seeded   []experiments.Request   `json:"seeded"`
	Fresh    [][]experiments.Request `json:"fresh"`
	Requests int                     `json:"requests"`
	INMFrac  float64                 `json:"if_none_match_frac"`
	SeqSeed  int64                   `json:"sequence_seed"`
}

// Seeded keys are cheap chip-level reports at the golden settings, so
// seeding stays short; their bodies span 2 to 42 KB.
var seededIDs = []string{"table1", "fig6", "minwi", "loop", "abl-accel", "motiv", "vrt", "profile",
	"disturb-exposure", "disturb-mitigation", "abl-remap", "fleet-ce"}

// freshSets is how many sets of new keys a serve run rotates through.
// What a miss costs depends on its seed, so rotating keeps one seed's
// keys from setting the run's medians.
const freshSets = 4

// newServePlan derives a serve plan from the workload seed. Each fresh
// set holds fig14 and fig17 at one shared (seed, scale), so both misses
// generate the same twelve traces, plus chip-level ids.
func newServePlan(seed int64, tiny bool) servePlan {
	at := func(id string, base experiments.Request, unit int) experiments.Request {
		base.Experiment, base.Seed = id, parallel.Seed(seed, unit)
		return base
	}
	// 15000 requests make the hits about half of a round's wall time and
	// the eight misses the other half.
	p := servePlan{Requests: 15000, INMFrac: 0.1, SeqSeed: parallel.Seed(seed, 100)}
	seeds, ids, sets := 2, seededIDs, freshSets
	fresh := []string{"fig3", "fig4", "fig15", "fig16", "table3", "fleet-risk"}
	if tiny {
		p.Requests, seeds, ids, sets, fresh = 300, 1, seededIDs[:4], 1, []string{"table3", "fleet-risk"}
	}
	for s := 0; s < seeds; s++ {
		for _, id := range ids {
			p.Seeded = append(p.Seeded, at(id, goldenBase, s))
		}
	}
	for k := 0; k < sets; k++ {
		var set []experiments.Request
		if !tiny {
			traceBase := experiments.Request{Scale: 0.02, SimTimeNs: 200_000, Mixes: 3}
			set = append(set, at("fig14", traceBase, 10+k), at("fig17", traceBase, 10+k))
		}
		for _, id := range fresh {
			set = append(set, at(id, goldenBase, 20+k))
		}
		p.Fresh = append(p.Fresh, set)
	}
	return p
}

// serveKey is one cache key of the plan with what the daemon must
// answer for it.
type serveKey struct {
	id    string
	key   string // cache key, hex; the ETag
	body  []byte // request body
	want  string // SHA-256 of the canonical report
	fresh bool
}

// serveOp is one request of a round's sequence.
type serveOp struct {
	key int
	inm bool // sends If-None-Match: <key>
}

// buildSequence lays out one round's requests. Seeded keys are first
// touched early (each first touch is a disk hit) and every later
// request repeats a seeded key already touched (a memory hit), a share
// of them with If-None-Match (a 304). The round ends with the fresh
// keys, one request each (a miss). Misses come last because a miss
// keeps both cores busy: a hit sent alongside one waits for the
// scheduler, and with misses spread through the round those few waits
// set p99, which then moved by a quarter between runs.
func buildSequence(p servePlan) []serveOp {
	n, nSeeded, nFresh := p.Requests, len(p.Seeded), len(p.Fresh[0])
	rng := rand.New(rand.NewSource(p.SeqSeed))
	hits := n - nFresh
	first := make([]int, hits)
	for i := range first {
		first[i] = -1
	}
	for j, k := range rng.Perm(nSeeded) {
		first[j*(hits/5)/nSeeded] = k
	}
	seq := make([]serveOp, 0, n)
	var touched []int
	for i := 0; i < hits; i++ {
		if k := first[i]; k >= 0 {
			seq = append(seq, serveOp{key: k})
			touched = append(touched, k)
			continue
		}
		seq = append(seq, serveOp{key: touched[rng.Intn(len(touched))], inm: rng.Float64() < p.INMFrac})
	}
	for j := 0; j < nFresh; j++ {
		seq = append(seq, serveOp{key: nSeeded + j})
	}
	return seq
}

// prepareServe computes every key's expected report, writes the seeded
// ones into a disk cache directory in the daemon's format and returns
// the keys of each round's slot: the seeded keys followed by one fresh
// set. Computing the fresh keys here is also the miss path the daemon
// runs, so a traced run spans it as the experiments and report layers
// of this workload.
func (h *harness) prepareServe(ctx context.Context, p servePlan, corpus string) ([][]serveKey, error) {
	reqs := append([]experiments.Request{}, p.Seeded...)
	for _, set := range p.Fresh {
		reqs = append(reqs, set...)
	}
	if err := os.RemoveAll(corpus); err != nil {
		return nil, err
	}
	store, err := servecache.OpenStore(corpus, 0)
	if err != nil {
		return nil, err
	}
	all, err := parallel.Map(ctx, len(reqs), h.workers, func(i int) (serveKey, error) {
		req := reqs[i]
		if err := req.Normalize(); err != nil {
			return serveKey{}, err
		}
		fresh := i >= len(p.Seeded)
		rec := h.rec
		if !fresh {
			rec = nil
		}
		reqJSON, err := req.MarshalCanonical()
		if err != nil {
			return serveKey{}, err
		}
		_, end := rec.Start(0, "experiments."+req.Experiment)
		res, err := experiments.RunRequest(ctx, req, experiments.Runtime{Workers: 1})
		end()
		if err != nil {
			return serveKey{}, err
		}
		_, end = rec.Start(0, "report.build")
		rep := res.Report()
		end()
		_, end = rec.Start(0, "report.encode")
		data, err := rep.MarshalCanonical()
		end()
		if err != nil {
			return serveKey{}, err
		}
		k := serveKey{id: req.Experiment, key: req.KeyHex(), body: reqJSON, want: digest(data), fresh: fresh}
		if !fresh {
			if err := store.Put(servecache.Key(req.CacheKey()), reqJSON, data); err != nil {
				return serveKey{}, err
			}
		}
		return k, nil
	})
	if err != nil {
		return nil, err
	}
	seeded, fresh := all[:len(p.Seeded)], all[len(p.Seeded):]
	slots := make([][]serveKey, len(p.Fresh))
	for k := range slots {
		n := len(p.Fresh[k])
		slots[k] = append(append([]serveKey{}, seeded...), fresh[:n]...)
		fresh = fresh[n:]
	}
	return slots, nil
}

// reqResult is one request as the client saw it.
type reqResult struct {
	status int
	tier   string
	etag   string
	digest string
	lat    time.Duration
	err    error
}

// roundOutcome is one daemon lifetime: start over a fresh copy of the
// seeded cache, one pass over the request sequence, drain.
type roundOutcome struct {
	proc    procStats
	setup   time.Duration
	load    time.Duration
	results []reqResult
	metrics map[string]float64
}

// serveRound runs one round. rec, when set, records a span per
// request and the daemon's counters.
func (h *harness) serveRound(ctx context.Context, keys []serveKey, seq []serveOp, corpus string, rec *Recorder) (roundOutcome, error) {
	var out roundOutcome
	cache := filepath.Join(h.out, "round-cache")
	if err := copyDir(corpus, cache); err != nil {
		return out, err
	}
	d, err := h.startDaemon(ctx, cache)
	if err != nil {
		return out, err
	}
	out.setup = d.setup
	defer d.kill()

	// Twice as many keep-alive connections as cores keep the daemon's
	// cores busy, so a pause of the virtual machine slows the queue as a
	// whole. With one or nproc connections the cores idled between
	// requests, each request paid for waking one, and on a shared host
	// p99 then moved with the host's load by a quarter between runs and
	// doubled in a burst. The harness's own collector is held off while
	// the round is timed and each connection reads bodies into one reused
	// buffer, so the harness does not pause its requests either.
	out.results = make([]reqResult, len(seq))
	conns := 2 * h.workers
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) || ctx.Err() != nil {
					return
				}
				out.results[i] = h.send(ctx, client, d.url, keys[seq[i].key], seq[i].inm, &body, rec)
			}
		}()
	}
	wg.Wait()
	out.load = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return out, err
	}
	out.metrics, err = scrape(ctx, client, d.url)
	if err != nil {
		return out, err
	}
	out.proc, err = d.stop()
	if err != nil {
		return out, err
	}
	if rec != nil {
		for name, v := range out.metrics {
			rec.Add(name, v)
		}
	}
	return out, os.RemoveAll(cache)
}

// send issues one request and reads the whole response into body.
func (h *harness) send(ctx context.Context, client *http.Client, url string, k serveKey, inm bool, body *bytes.Buffer, rec *Recorder) reqResult {
	var r reqResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/experiments/"+k.id, bytes.NewReader(k.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if inm {
		req.Header.Set("If-None-Match", `"`+k.key+`"`)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	r.lat, r.err = t1.Sub(t0), err
	r.status, r.tier, r.etag = resp.StatusCode, resp.Header.Get("X-Memcond-Cache"), resp.Header.Get("ETag")
	if resp.StatusCode == http.StatusOK {
		r.digest = digest(body.Bytes())
	}
	name := "memcond.request." + r.tier
	if r.status == http.StatusNotModified {
		name = "memcond.request.not_modified"
	}
	rec.Done(0, name, t0, t1)
	return r
}

// checkRound counts every request as one operation, failing it when
// the answer is wrong for its key, plus the round's miss count.
func (h *harness) checkRound(keys []serveKey, seq []serveOp, o roundOutcome) {
	fresh := 0
	for i, r := range o.results {
		op, k := seq[i], keys[seq[i].key]
		var err error
		switch {
		case r.err != nil:
			err = r.err
		case op.inm && r.status != http.StatusNotModified, !op.inm && r.status != http.StatusOK:
			err = fmt.Errorf("status %d", r.status)
		case r.etag != `"`+k.key+`"`:
			err = errors.New("ETag is not the request's cache key")
		case !op.inm && r.digest != k.want:
			err = errors.New("body differs from the expected report")
		case k.fresh && r.tier != "miss":
			err = fmt.Errorf("new key answered from tier %q", r.tier)
		case !k.fresh && (r.tier == "miss" || r.tier == "shared"):
			err = errors.New("a cached key ran an experiment")
		}
		if k.fresh {
			fresh++
		}
		h.op(k.id, err)
	}
	h.op("round", errorIf(o.metrics["memcond.misses"] != float64(fresh), "daemon miss count differs from the new keys sent"))
}

// runServe measures the serve workload: daemon rounds until the run's
// time is up.
func (h *harness) runServe(ctx context.Context) error {
	p := newServePlan(h.seed, h.tiny)
	h.params = p
	rounds, err := h.serveRounds(ctx, p, kindPass)
	if err != nil {
		return err
	}
	// Latency percentiles are taken per round, over its every request,
	// and reported as the median over the rounds like the other metrics,
	// so a burst of the host's load that lifts the tail of the rounds it
	// overlaps does not carry into the run's p99.
	for _, o := range rounds {
		h.samples.add("setup_s", o.setup.Seconds())
		h.samples.add("wall_s", o.load.Seconds())
		h.samples.add("cpu_s", o.proc.cpu.Seconds())
		h.samples.add("peak_rss_mb", o.proc.rssMB)
		h.samples.add("rps", float64(len(o.results))/o.load.Seconds())
		lats := make([]float64, len(o.results))
		for i, r := range o.results {
			lats[i] = float64(r.lat) / 1e6
		}
		h.samples.add("req_p50_ms", median(lats))
		h.samples.add("req_p99_ms", percentile(lats, 99))
	}
	return nil
}

// serveRounds prepares the plan and runs its rounds: until the run's
// time is up when untraced; one traced round (spans of the given kind)
// when traced, after an untraced one to measure the tracing overhead
// against when the workload itself is serve.
func (h *harness) serveRounds(ctx context.Context, p servePlan, kind string) ([]roundOutcome, error) {
	corpus := filepath.Join(h.out, "corpus")
	h.rec.SetRun(h.runID("serve-prepare"), kind)
	slots, err := h.prepareServe(ctx, p, corpus)
	if err != nil {
		return nil, err
	}
	seq := buildSequence(p)
	var rounds []roundOutcome
	run := func(rec *Recorder, slot int) error {
		keys := slots[slot]
		o, err := h.serveRound(ctx, keys, seq, corpus, rec)
		if err != nil {
			return err
		}
		h.checkRound(keys, seq, o)
		rounds = append(rounds, o)
		return nil
	}
	if h.traced {
		if kind == kindPass {
			if err := run(nil, 0); err != nil {
				return nil, err
			}
		}
		h.rec.SetRun(h.runID("serve-round"), kind)
		if err := run(h.rec, 0); err != nil {
			return nil, err
		}
		if kind == kindPass {
			h.extra["tracing.overhead_s"] = rounds[1].load.Seconds() - rounds[0].load.Seconds()
		}
	} else {
		start := time.Now()
		for len(rounds) == 0 || time.Since(start) < h.seconds {
			if err := run(nil, len(rounds)%len(slots)); err != nil {
				return nil, err
			}
		}
	}
	if kind == kindPass {
		digests := map[string]string{}
		for _, keys := range slots {
			for _, k := range keys {
				digests[k.key] = k.want
			}
		}
		h.compareDigests(digests)
	}
	return rounds, os.RemoveAll(corpus)
}

// daemon is one running memcond process.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	t0    time.Time
	setup time.Duration
	done  chan struct{}
}

// startDaemon starts memcond over cacheDir and returns once /readyz
// answers 200, which is after its warm-boot scan of the cache.
func (h *harness) startDaemon(ctx context.Context, cacheDir string) (*daemon, error) {
	addrFile := filepath.Join(h.out, "memcond.addr")
	os.Remove(addrFile)
	logf, err := os.OpenFile(filepath.Join(h.out, "memcond.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(h.memcond, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-cache-dir", cacheDir, "-workers", strconv.Itoa(h.workers))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, t0: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting memcond: %w", err)
	}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	poll := &http.Client{Timeout: time.Second}
	defer poll.CloseIdleConnections()
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("memcond exited during start-up (see %s)", logf.Name())
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		default:
		}
		if time.Since(d.t0) > 30*time.Second {
			d.kill()
			return nil, errors.New("memcond not ready after 30 s")
		}
		if d.url == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.url = "http://" + strings.TrimSpace(string(b))
			}
		} else if resp, err := poll.Get(d.url + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(d.t0)
				return d, nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop drains the daemon with SIGTERM, as its operators do, and returns
// what the process used over its whole life.
func (d *daemon) stop() (procStats, error) {
	rss, err := vmHWM(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return procStats{}, err
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return procStats{}, errors.New("memcond did not drain within 30 s")
	}
	ps := d.cmd.ProcessState
	if !ps.Success() {
		return procStats{}, fmt.Errorf("memcond exited with %v", ps)
	}
	return procStats{wall: time.Since(d.t0), cpu: ps.UserTime() + ps.SystemTime(), rssMB: rss}, nil
}

// kill ends the daemon if it still runs and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
}

// daemonCounters maps memcond's Prometheus counters to metric names.
var daemonCounters = map[string]string{
	"memcond_cache_hits_total":      "memcond.hits",
	"memcond_cache_disk_hits_total": "memcond.disk_hits",
	"memcond_cache_misses_total":    "memcond.misses",
	"memcond_not_modified_total":    "memcond.not_modified",
	"memcond_cache_shared_total":    "memcond.shared",
	"memcond_busy_total":            "memcond.busy",
}

// scrape reads the daemon's counters from /metrics.
func scrape(ctx context.Context, client *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	var requests float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		if m, ok := daemonCounters[name]; ok {
			out[m] = v
		}
		if name == "memcond_requests_total" {
			requests = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != len(daemonCounters) || requests == 0 {
		return nil, errors.New("memcond /metrics lacks the request counters")
	}
	out["memcond.hit_ratio"] = out["memcond.hits"] / requests
	return out, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
