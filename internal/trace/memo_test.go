package trace

import (
	"testing"
)

func memoTrace() *Trace {
	tr := &Trace{Name: "memo", Duration: 10 * Second}
	for i := 0; i < 500; i++ {
		tr.Events = append(tr.Events, Event{Page: uint32(i % 37), At: Microseconds(i) * 1000})
	}
	tr.Sort()
	return tr
}

// TestAnalysisAccessorsAllocationFree is the satellite regression test:
// Pages/MaxPage/PageWrites memoize on the sorted trace, so repeated
// calls must not allocate (they used to build a fresh seen-map or
// per-page index every call).
func TestAnalysisAccessorsAllocationFree(t *testing.T) {
	tr := memoTrace()
	// Warm the memos.
	tr.Pages()
	tr.PageWrites()
	if n := testing.AllocsPerRun(100, func() {
		if tr.Pages() != 37 || tr.MaxPage() != 36 {
			t.Fatal("memoized stats wrong")
		}
	}); n != 0 {
		t.Errorf("Pages/MaxPage allocate %.1f times per call after warm-up, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if len(tr.PageWrites()) != 37 {
			t.Fatal("memoized index wrong")
		}
	}); n != 0 {
		t.Errorf("PageWrites allocates %.1f times per call after warm-up, want 0", n)
	}
}

// Intervals sizes its result once: after the page index is memoized it
// allocates only the sorted page list and the result, however many
// intervals there are.
func TestIntervalsAllocatesOnce(t *testing.T) {
	tr := memoTrace()
	tr.PageWrites()
	var ivs []float64
	if n := testing.AllocsPerRun(100, func() { ivs = tr.Intervals(true) }); n != 2 {
		t.Errorf("Intervals allocates %.1f times per call after warm-up, want 2", n)
	}
	if len(ivs) != len(tr.Events) {
		t.Errorf("%d intervals, want one per event (every page has a trailing interval)", len(ivs))
	}
}

// TestSortInvalidatesMemos pins the invalidation contract: mutate
// Events, Sort, and every accessor must see the new shape.
func TestSortInvalidatesMemos(t *testing.T) {
	tr := memoTrace()
	if got := tr.MaxPage(); got != 36 {
		t.Fatalf("MaxPage = %d, want 36", got)
	}
	if got := len(tr.PageWrites()[100]); got != 0 {
		t.Fatalf("page 100 has %d writes before it exists", got)
	}
	tr.Events = append(tr.Events, Event{Page: 100, At: 5 * Second})
	tr.Sort()
	if got := tr.MaxPage(); got != 100 {
		t.Errorf("MaxPage after Sort = %d, want 100", got)
	}
	if got := tr.Pages(); got != 38 {
		t.Errorf("Pages after Sort = %d, want 38", got)
	}
	if got := len(tr.PageWrites()[100]); got != 1 {
		t.Errorf("page 100 writes after Sort = %d, want 1", got)
	}
}

// TestAppendWritesPerPageReuse pins the sweep-friendly reusable form:
// the second fill reuses the first map's buckets, drops pages the new
// trace does not write, and matches a fresh build.
func TestAppendWritesPerPageReuse(t *testing.T) {
	a := &Trace{Duration: Second, Events: []Event{{Page: 1, At: 1}, {Page: 2, At: 2}, {Page: 1, At: 3}}}
	b := &Trace{Duration: Second, Events: []Event{{Page: 2, At: 5}, {Page: 3, At: 6}}}
	m := a.AppendWritesPerPage(nil)
	if len(m) != 2 || len(m[1]) != 2 {
		t.Fatalf("first fill = %v", m)
	}
	m = b.AppendWritesPerPage(m)
	want := b.WritesPerPage()
	if len(m) != len(want) {
		t.Fatalf("reuse fill = %v, want %v", m, want)
	}
	for p, times := range want {
		got := m[p]
		if len(got) != len(times) {
			t.Fatalf("page %d: %v, want %v", p, got, times)
		}
		for i := range times {
			if got[i] != times[i] {
				t.Fatalf("page %d: %v, want %v", p, got, times)
			}
		}
	}
	if _, ok := m[1]; ok {
		t.Error("page 1 survived the refill although trace b never writes it")
	}
}
