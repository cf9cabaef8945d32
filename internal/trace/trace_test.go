package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	t := &Trace{
		Name:     "sample",
		Duration: 10 * Second,
		Events: []Event{
			{Page: 1, At: 0},
			{Page: 2, At: 100},
			{Page: 1, At: 2 * Second},
			{Page: 3, At: 3 * Second},
			{Page: 1, At: 3 * Second},
		},
	}
	return t
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := &Trace{Events: []Event{{Page: 1, At: 5}, {Page: 1, At: 3}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-order trace accepted")
	}
	neg := &Trace{Events: []Event{{Page: 1, At: -1}}}
	if err := neg.Validate(); err == nil {
		t.Error("negative timestamp accepted")
	}
	shortDur := &Trace{Duration: 1, Events: []Event{{Page: 1, At: 5}}}
	if err := shortDur.Validate(); err == nil {
		t.Error("duration shorter than events accepted")
	}
}

func TestSortStable(t *testing.T) {
	tr := &Trace{
		Duration: 100,
		Events: []Event{
			{Page: 9, At: 50},
			{Page: 1, At: 10},
			{Page: 2, At: 50},
		},
	}
	tr.Sort()
	if tr.Events[0].Page != 1 {
		t.Errorf("first event page = %d, want 1", tr.Events[0].Page)
	}
	// Stable: page 9 written before page 2 at the same timestamp.
	if tr.Events[1].Page != 9 || tr.Events[2].Page != 2 {
		t.Errorf("tie order not preserved: %+v", tr.Events)
	}
}

func TestPagesAndMaxPage(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Pages(); got != 3 {
		t.Errorf("Pages = %d, want 3", got)
	}
	if got := tr.MaxPage(); got != 3 {
		t.Errorf("MaxPage = %d, want 3", got)
	}
	empty := &Trace{}
	if got := empty.MaxPage(); got != -1 {
		t.Errorf("empty MaxPage = %d, want -1", got)
	}
}

func TestIntervals(t *testing.T) {
	tr := sampleTrace()
	// Page 1: writes at 0, 2s, 3s -> intervals 2000ms, 1000ms, trailing 7000ms.
	// Page 2: write at 100us -> trailing only.
	// Page 3: write at 3s -> trailing only.
	noTrail := tr.Intervals(false)
	if len(noTrail) != 2 {
		t.Fatalf("closed intervals = %v, want 2 entries", noTrail)
	}
	withTrail := tr.Intervals(true)
	if len(withTrail) != 5 {
		t.Fatalf("with trailing = %v, want 5 entries", withTrail)
	}
	var sum float64
	for _, iv := range withTrail {
		sum += iv
		if iv <= 0 {
			t.Errorf("non-positive interval %v", iv)
		}
	}
}

func TestWritesPerPage(t *testing.T) {
	tr := sampleTrace()
	m := tr.WritesPerPage()
	if len(m[1]) != 3 || len(m[2]) != 1 || len(m[3]) != 1 {
		t.Errorf("WritesPerPage = %v", m)
	}
	if m[1][0] != 0 || m[1][1] != 2*Second || m[1][2] != 3*Second {
		t.Errorf("page 1 times = %v", m[1])
	}
}

func TestHalveIntervals(t *testing.T) {
	tr := sampleTrace()
	h := tr.HalveIntervals()
	if err := h.Validate(); err != nil {
		t.Fatalf("halved trace invalid: %v", err)
	}
	if h.Duration != tr.Duration/2 {
		t.Errorf("halved duration = %d, want %d", h.Duration, tr.Duration/2)
	}
	m := h.WritesPerPage()
	// Page 1 gaps were 2s and 1s; halved to 1s and 0.5s.
	if got := m[1][1] - m[1][0]; got != Second {
		t.Errorf("halved first gap = %d, want 1s", got)
	}
	if got := m[1][2] - m[1][1]; got != Second/2 {
		t.Errorf("halved second gap = %d, want 0.5s", got)
	}
	if len(h.Events) != len(tr.Events) {
		t.Errorf("event count changed: %d -> %d", len(tr.Events), len(h.Events))
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Duration != tr.Duration || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	// Correct magic, wrong version.
	var buf bytes.Buffer
	tr := sampleTrace()
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 0xFF // clobber version
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Error("wrong version accepted")
	}
	// Truncated stream.
	if _, err := Read(bytes.NewReader(buf.Bytes()[:len(b)-4])); err == nil {
		t.Error("truncated stream accepted")
	}
}

// FuzzRead feeds arbitrary bytes to the v1 decoder: it must never
// panic, and an accepted input must re-encode to exactly the bytes it
// was decoded from (v1 is fixed-width, so its encoding is canonical)
// and decode again to the same trace.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleTrace().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := (&Trace{Duration: 1}).Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(append(buf.Bytes()[:20:20], 0, 0, 0, 0, 1, 0, 0, 0)) // declares 2^32 events, no body
	f.Add([]byte("MCTR garbage"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := Read(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := tr.Write(&first); err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		if !bytes.HasPrefix(raw, first.Bytes()) {
			t.Fatalf("re-encode is not the decoded prefix:\n raw %x\n got %x", raw, first.Bytes())
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if again.Name != tr.Name || again.Duration != tr.Duration || !slices.Equal(again.Events, tr.Events) {
			t.Fatalf("round-trip changed the trace: %q/%d/%d events vs %q/%d/%d events",
				again.Name, again.Duration, len(again.Events), tr.Name, tr.Duration, len(tr.Events))
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encode is not a fixed point:\n first  %x\n second %x", first.Bytes(), second.Bytes())
		}
	})
}

// Property: Write/Read round-trips arbitrary traces.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "prop"}
		var at Microseconds
		for i := 0; i < int(n); i++ {
			at += Microseconds(rng.Intn(1000))
			tr.Events = append(tr.Events, Event{Page: uint32(rng.Intn(64)), At: at})
		}
		tr.Duration = at + 1
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Duration != tr.Duration || len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: halving preserves per-page write counts and never produces
// an invalid trace.
func TestHalveIntervalsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "prop"}
		var at Microseconds
		for i := 0; i < int(n)+1; i++ {
			at += Microseconds(rng.Intn(100000))
			tr.Events = append(tr.Events, Event{Page: uint32(rng.Intn(8)), At: at})
		}
		tr.Duration = at + Microseconds(rng.Intn(100000))
		h := tr.HalveIntervals()
		if h.Validate() != nil {
			return false
		}
		orig := tr.WritesPerPage()
		halved := h.WritesPerPage()
		if len(orig) != len(halved) {
			return false
		}
		for p, times := range orig {
			if len(halved[p]) != len(times) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
