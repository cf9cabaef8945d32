package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"memcon/internal/report"
)

// TestDefaultRequest pins the full-scale defaults: the paper-scale
// values every CLI flag default and JSON overlay start from.
func TestDefaultRequest(t *testing.T) {
	r := DefaultRequest("fig14")
	want := Request{Experiment: "fig14", Seed: 42, Scale: 1, SimTimeNs: 500_000, Mixes: 30}
	if r != want {
		t.Errorf("DefaultRequest = %+v, want %+v (Fleet derived at Normalize)", r, want)
	}
	if err := r.Normalize(); err != nil {
		t.Errorf("the default request does not normalize: %v", err)
	}
}

func TestNormalizeValidates(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Request)
		want string
	}{
		{"unknown id", func(r *Request) { r.Experiment = "fig99" }, "unknown experiment"},
		{"zero scale", func(r *Request) { r.Scale = 0 }, "scale"},
		{"oversized scale", func(r *Request) { r.Scale = 1.5 }, "scale"},
		{"NaN scale", func(r *Request) { r.Scale = math.NaN() }, "scale"},
		{"zero simtime", func(r *Request) { r.SimTimeNs = 0 }, "simtime"},
		{"negative mixes", func(r *Request) { r.Mixes = -1 }, "mixes"},
		{"negative fleet", func(r *Request) { r.Fleet = -2 }, "fleet"},
	}
	for _, tc := range cases {
		r := DefaultRequest("fig14")
		tc.mut(&r)
		err := r.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Normalize() = %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestNormalizeCanonicalizesFleet pins the one rewrite Normalize
// performs: single-module experiments drop a stray Fleet, fleet
// experiments derive the scale-proportional default.
func TestNormalizeCanonicalizesFleet(t *testing.T) {
	r := DefaultRequest("fig14")
	r.Fleet = 99
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.Fleet != 0 {
		t.Errorf("fig14 Fleet = %d after Normalize, want 0", r.Fleet)
	}

	f := DefaultRequest("fleet-ce")
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.Fleet != 160 {
		t.Errorf("fleet-ce Fleet at scale 1 = %d, want derived 160", f.Fleet)
	}
	f = DefaultRequest("fleet-ce")
	f.Scale = 0.01
	f.Fleet = 0
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.Fleet != 4 {
		t.Errorf("fleet-ce Fleet at scale 0.01 = %d, want floor 4", f.Fleet)
	}
	f = DefaultRequest("fleet-ce")
	f.Fleet = 12
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.Fleet != 12 {
		t.Errorf("explicit Fleet rewritten to %d", f.Fleet)
	}
}

// TestRequestJSONOverlay pins the decode-onto-defaults idiom the server
// uses: absent fields keep the defaults, present fields win, and an
// explicit zero seed is honoured.
func TestRequestJSONOverlay(t *testing.T) {
	req := DefaultRequest("fig3")
	if err := json.Unmarshal([]byte(`{"seed":0,"scale":0.25}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.Seed != 0 {
		t.Errorf("explicit zero seed became %d", req.Seed)
	}
	if req.Scale != 0.25 {
		t.Errorf("scale = %v, want 0.25", req.Scale)
	}
	if d := DefaultRequest("fig3"); req.SimTimeNs != d.SimTimeNs || req.Mixes != d.Mixes {
		t.Errorf("absent fields lost their defaults: %+v", req)
	}
	if req.Experiment != "fig3" {
		t.Errorf("experiment = %q", req.Experiment)
	}
}

func TestRequestJSONRoundTrip(t *testing.T) {
	r := testRequest("fleet-ce")
	r.Fleet = 8
	r.Version = "v1"
	b, err := r.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("round trip changed the request:\n  in  %+v\n  out %+v", r, back)
	}
	b2, err := back.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("canonical encodings differ:\n%s\n%s", b, b2)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	base := testRequest("fig6")
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	muts := map[string]func(*Request){
		"experiment": func(r *Request) { r.Experiment = "minwi" },
		"seed":       func(r *Request) { r.Seed++ },
		"scale":      func(r *Request) { r.Scale = 0.05 },
		"simtime":    func(r *Request) { r.SimTimeNs++ },
		"mixes":      func(r *Request) { r.Mixes++ },
		"fleet":      func(r *Request) { r.Fleet++ },
		"version":    func(r *Request) { r.Version = "other" },
	}
	seen := map[string]string{base.KeyHex(): "base"}
	for field, mut := range muts {
		r := base
		mut(&r)
		hex := r.KeyHex()
		if prev, dup := seen[hex]; dup {
			t.Errorf("mutating %s collides with %s (key %s)", field, prev, hex)
		}
		seen[hex] = field
	}
	again := base
	if again.KeyHex() != base.KeyHex() {
		t.Error("identical requests produced different keys")
	}
	if len(base.KeyHex()) != 64 {
		t.Errorf("key hex length = %d, want 64", len(base.KeyHex()))
	}
}

// TestProvenanceRoundTrip is the -diff default-drift regression: for
// every committed reference report, rebuilding the request from saved
// provenance, normalizing, and restamping must reproduce the saved
// provenance exactly. A new provenance field that is not carried
// through RequestFromProvenance and Request.Provenance fails here the
// moment a reference report records it.
func TestProvenanceRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "reports", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no reference reports found")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := report.DecodeBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		req := RequestFromProvenance(rep.Prov)
		if err := req.Normalize(); err != nil {
			t.Errorf("%s: Normalize: %v", f, err)
			continue
		}
		if got := req.Provenance(); got != rep.Prov {
			t.Errorf("%s: provenance drifted through the Request round trip:\n  saved %+v\n  round %+v", f, rep.Prov, got)
		}
	}
}

// TestRunContextStampsProvenance pins the request-based entrypoint: the
// stamped provenance is the normalized request, and an explicit zero
// seed survives.
func TestRunContextStampsProvenance(t *testing.T) {
	req := testRequest("minwi")
	req.Seed = 0
	req.Version = "req-build"
	res, err := RunRequest(context.Background(), req, Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Report().Prov
	if p.Experiment != "minwi" || p.Seed != 0 || p.Scale != req.Scale ||
		p.SimTimeNs != req.SimTimeNs || p.Mixes != req.Mixes || p.Version != "req-build" {
		t.Errorf("provenance = %+v", p)
	}
	if p.Fleet != 0 {
		t.Errorf("minwi stamped Fleet %d, want 0", p.Fleet)
	}
	if p.Title == "" {
		t.Error("provenance missing the registry description")
	}
}

func TestRunContextRejectsInvalid(t *testing.T) {
	if _, err := RunRequest(context.Background(), Request{Experiment: "fig99", Scale: 1, SimTimeNs: 1, Mixes: 1}, Runtime{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := RunRequest(context.Background(), Request{Experiment: "fig6"}, Runtime{}); err == nil {
		t.Error("zero-value request accepted (scale 0 must be invalid)")
	}
}

// TestRunContextCancelled pins that a pre-cancelled context aborts the
// run instead of completing it.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunRequest(ctx, testRequest("fig3"), Runtime{}); err == nil {
		t.Error("cancelled context did not abort the run")
	}
}

// FuzzRequest decodes arbitrary JSON onto the default request of a
// registered id, the way memcond decodes request bodies. Bad input must
// come back as an error, never a panic; a request that normalizes must
// be a fixed point of Normalize; and its canonical JSON must decode and
// normalize back to the same cache key.
func FuzzRequest(f *testing.F) {
	ids := IDs()
	for i, id := range ids {
		b, err := DefaultRequest(id).MarshalCanonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), b)
	}
	pick := func(id string) uint8 { return uint8(slices.Index(ids, id)) }
	f.Add(pick("fig6"), []byte(`{"seed":0}`))
	f.Add(pick("fig3"), []byte(`{"mapping":"gray","scale":0.05}`))
	f.Add(pick("fig3"), []byte(`{"mapping":"default"}`))
	f.Add(pick("disturb-mitigation"), []byte(`{"disturb":"para:0.01"}`))
	f.Add(pick("disturb-exposure"), []byte(`{"disturb":"none"}`))
	f.Add(pick("fig14"), []byte(`{"fleet":12}`))
	f.Add(pick("fleet-ce"), []byte(`{"fleet":0,"scale":0.01}`))
	f.Add(pick("fleet-risk"), []byte(`{"fleet":12}`))
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		req := DefaultRequest(ids[int(which)%len(ids)])
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		if err := req.Normalize(); err != nil {
			return
		}
		once := req
		if err := req.Normalize(); err != nil {
			t.Fatalf("normalized request %+v fails a second Normalize: %v", once, err)
		}
		if req != once {
			t.Fatalf("Normalize is not idempotent:\n  once  %+v\n  twice %+v", once, req)
		}
		b, err := req.MarshalCanonical()
		if err != nil {
			t.Fatalf("MarshalCanonical(%+v): %v", req, err)
		}
		var back Request
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("canonical JSON %s does not decode: %v", b, err)
		}
		if err := back.Normalize(); err != nil {
			t.Fatalf("canonical JSON %s does not normalize: %v", b, err)
		}
		if back.CacheKey() != req.CacheKey() {
			t.Fatalf("canonical round trip changed the key:\n  in  %+v\n  out %+v", req, back)
		}
	})
}
