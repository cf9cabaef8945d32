package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleSort is the construction Builder and Sort replace: append, then
// sort.SliceStable on At.
func oracleSort(events []Event) []Event {
	out := slices.Clone(events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// pageMajor returns random page-major runs: pages one after another,
// each page's times non-decreasing from a random start. tie is the
// chance a page repeats its previous time (the ties HalveIntervals
// makes). Every At is below maxAt, so a small maxAt forces ties across
// pages.
func pageMajor(rng *rand.Rand, pages, perPage int, maxAt Microseconds, tie float64) []Event {
	var out []Event
	for p := 0; p < pages; p++ {
		at := rng.Int63n(int64(maxAt))
		for i := rng.Intn(perPage + 1); i > 0 && at < maxAt; i-- {
			out = append(out, Event{Page: uint32(p), At: at})
			if rng.Float64() >= tie {
				at += 1 + rng.Int63n(int64(maxAt)/8+1)
			}
		}
	}
	return out
}

// build adds events to a fresh Builder and returns SortedEvents.
func build(t *testing.T, events []Event) []Event {
	t.Helper()
	var b Builder
	for _, e := range events {
		b.Add(e)
	}
	if b.count() != len(events) {
		t.Fatalf("count = %d after %d adds", b.count(), len(events))
	}
	return b.SortedEvents()
}

type buildCase struct {
	name   string
	events []Event
}

func TestBuilderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []buildCase{
		{"empty", nil},
		{"single", []Event{{Page: 3, At: 7}}},
		{"single-zero", []Event{{Page: 0, At: 0}}},
	}
	var zeros []Event
	for p := uint32(0); p < 3000; p++ {
		zeros = append(zeros, Event{Page: p, At: 0}, Event{Page: p, At: 0})
	}
	cases = append(cases, buildCase{"all-zero", zeros})
	for _, c := range []struct {
		pages, perPage int
		maxAt          Microseconds
		tie            float64
	}{
		{10, 20, 1000, 0.3},            // below the radix cutoff
		{400, 40, 1 << 14, 0.3},        // one digit, heavy cross-page ties
		{600, 40, 1 << 16, 0.3},        // keys just past one digit
		{2000, 60, 300 * Second, 0.05}, // two digits, several chunks
		{500, 200, 1 << 20, 0.5},       // two digits, dense ties
		{3000, 30, radixKeys, 0.1},     // keys up to the radix bound
	} {
		name := fmt.Sprintf("pages%d-per%d-max%d-tie%g", c.pages, c.perPage, c.maxAt, c.tie)
		cases = append(cases, buildCase{name, pageMajor(rng, c.pages, c.perPage, c.maxAt, c.tie)})
	}
	// Fallback path: one event outside [0, 2^30) sends the whole trace
	// to the comparison sort.
	big := pageMajor(rng, 1000, 40, Second, 0.2)
	cases = append(cases,
		buildCase{"at-2^30", append(slices.Clone(big), Event{Page: 9999, At: radixKeys}, Event{Page: 10000, At: 5})},
		buildCase{"at-maxint", append(slices.Clone(big), Event{Page: 9999, At: math.MaxInt64}, Event{Page: 10000, At: 0})},
		buildCase{"negative", append([]Event{{Page: 9999, At: -5}, {Page: 9999, At: 3}}, big...)},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := oracleSort(c.events)
			got := build(t, c.events)
			if len(got) != len(want) || cap(got) != len(want) {
				t.Fatalf("len/cap = %d/%d, want exactly %d", len(got), cap(got), len(want))
			}
			if len(want) == 0 && got != nil {
				t.Fatalf("empty build = %v, want nil", got)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%d events: first difference at %d: got %+v, want %+v", len(want), i, got[i], want[i])
			}
		})
	}
}

func TestBuilderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var b Builder
	for round := 0; round < 3; round++ {
		events := pageMajor(rng, 300, 50, 10*Second, 0.2)
		for _, e := range events {
			b.Add(e)
		}
		if got, want := b.SortedEvents(), oracleSort(events); firstDiff(got, want) >= 0 || len(got) != len(want) {
			t.Fatalf("round %d: builder reused after SortedEvents differs from the oracle", round)
		}
		if b.count() != 0 {
			t.Fatalf("round %d: count = %d after SortedEvents, want 0", round, b.count())
		}
	}
}

// Property: Builder equals the oracle on random page-major inputs of
// every size around the radix cutoff and the chunk size.
func TestBuilderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		pages := 1 + rng.Intn(600)
		perPage := 1 + rng.Intn(80)
		maxAt := Microseconds(1 + rng.Int63n(int64(1)<<uint(1+rng.Intn(34))))
		events := pageMajor(rng, pages, perPage, maxAt, rng.Float64())
		got, want := build(t, events), oracleSort(events)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d events, want %d", i, len(got), len(want))
		}
		if j := firstDiff(got, want); j >= 0 {
			t.Fatalf("case %d (%d events, maxAt %d): first difference at %d", i, len(want), maxAt, j)
		}
	}
}

// Sort must equal the oracle on arbitrary orders, not only the
// page-major ones Builder is for.
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 17, 1000, 50000} {
		for _, span := range []int64{1, 16, 1 << 20, math.MaxInt64} {
			events := make([]Event, n)
			for i := range events {
				at := rng.Int63n(span)
				if span == math.MaxInt64 && rng.Intn(4) == 0 {
					at = -at
				}
				events[i] = Event{Page: uint32(rng.Intn(64)), At: at}
			}
			tr := &Trace{Events: slices.Clone(events)}
			tr.Sort()
			want := oracleSort(events)
			if j := firstDiff(tr.Events, want); j >= 0 {
				t.Fatalf("n=%d span=%d: first difference at %d: got %+v, want %+v", n, span, j, tr.Events[j], want[j])
			}
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
