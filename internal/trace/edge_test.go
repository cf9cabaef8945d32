package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

func TestHalveIntervalsEmpty(t *testing.T) {
	tr := &Trace{Name: "empty", Duration: 1000}
	h := tr.HalveIntervals()
	if h.Duration != 500 || len(h.Events) != 0 {
		t.Errorf("halved empty trace = %+v", h)
	}
	if h.Name != "empty-halved" {
		t.Errorf("name = %q", h.Name)
	}
}

func TestIntervalsEmptyAndSingle(t *testing.T) {
	empty := &Trace{Duration: 100}
	if got := empty.Intervals(true); len(got) != 0 {
		t.Errorf("empty trace intervals = %v", got)
	}
	single := &Trace{Duration: 5 * Millisecond, Events: []Event{{Page: 1, At: Millisecond}}}
	closed := single.Intervals(false)
	if len(closed) != 0 {
		t.Errorf("single write closed intervals = %v", closed)
	}
	open := single.Intervals(true)
	if len(open) != 1 || open[0] != 4 {
		t.Errorf("single write trailing interval = %v, want [4]", open)
	}
}

func TestIntervalsNoTrailingWhenEventAtEnd(t *testing.T) {
	tr := &Trace{Duration: 100, Events: []Event{{Page: 1, At: 100}}}
	if got := tr.Intervals(true); len(got) != 0 {
		t.Errorf("event at trace end yielded trailing interval %v", got)
	}
}

func TestReadRejectsHugeName(t *testing.T) {
	// Construct a v1 header with an absurd name length.
	var buf bytes.Buffer
	tr := &Trace{Name: "x", Duration: 1}
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Name length lives at offset 8 (after magic+version), little endian.
	b[8], b[9], b[10], b[11] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Error("huge name length accepted")
	}
}

// A v1 header may declare up to 2^32 events; Read must not allocate
// for them before the event bytes arrive. This 28-byte stream once made
// Read ask for 64 GiB.
func TestReadDoesNotTrustEventCount(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Trace{Duration: 1}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 28 {
		t.Fatalf("empty-name v1 header is %d bytes, want 28", len(b))
	}
	// The event count is the final 8 bytes, little endian.
	binary.LittleEndian.PutUint64(b[20:], 1<<32)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header declaring 2^32 events with no body accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Errorf("Read allocated %d MiB for a bodiless header", grew>>20)
	}
}

func TestWritesPerPageOrderPreserved(t *testing.T) {
	tr := &Trace{Duration: 100, Events: []Event{
		{Page: 1, At: 10}, {Page: 1, At: 10}, {Page: 1, At: 20},
	}}
	times := tr.WritesPerPage()[1]
	if len(times) != 3 || times[0] != 10 || times[1] != 10 || times[2] != 20 {
		t.Errorf("times = %v", times)
	}
}
