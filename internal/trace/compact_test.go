package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompactRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompact(&buf)
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

func TestCompactRejectsInvalidTrace(t *testing.T) {
	bad := &Trace{Events: []Event{{Page: 1, At: 10}, {Page: 1, At: 5}}}
	var buf bytes.Buffer
	if err := bad.WriteCompact(&buf); err == nil {
		t.Error("unsorted trace written")
	}
}

func TestCompactRejectsGarbage(t *testing.T) {
	if _, err := ReadCompact(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("garbage accepted")
	}
	// v1 magic is not v2.
	var buf bytes.Buffer
	tr := sampleTrace()
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCompact(&buf); err == nil {
		t.Error("v1 stream accepted by compact reader")
	}
	// Truncation.
	var c bytes.Buffer
	tr.WriteCompact(&c)
	if _, err := ReadCompact(bytes.NewReader(c.Bytes()[:c.Len()-2])); err == nil {
		t.Error("truncated compact stream accepted")
	}
}

func TestCompactSmallerThanV1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := &Trace{Name: "big"}
	var at Microseconds
	for i := 0; i < 20000; i++ {
		at += Microseconds(rng.Intn(500))
		tr.Events = append(tr.Events, Event{Page: uint32(rng.Intn(256)), At: at})
	}
	tr.Duration = at + 1
	var v1, v2 bytes.Buffer
	if err := tr.Write(&v1); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCompact(&v2); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= v1.Len()/2 {
		t.Errorf("compact format %d bytes, v1 %d bytes; want at least 2x smaller", v2.Len(), v1.Len())
	}
}

// Property: compact round-trip preserves arbitrary sorted traces.
func TestCompactRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "prop"}
		var at Microseconds
		for i := 0; i < int(n); i++ {
			at += Microseconds(rng.Intn(100000))
			tr.Events = append(tr.Events, Event{Page: uint32(rng.Uint32()), At: at})
		}
		tr.Duration = at + 1
		var buf bytes.Buffer
		if err := tr.WriteCompact(&buf); err != nil {
			return false
		}
		got, err := ReadCompact(&buf)
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
