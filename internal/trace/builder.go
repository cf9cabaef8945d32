package trace

// Builder collects a trace's events and returns them ordered by At with
// ties in insertion order: the same slice a stable sort on At of the
// added sequence gives, whatever that sequence. Generators add
// page-major runs (one page's writes in increasing time, then the next
// page's), the order the append-then-Sort construction used, so the
// bytes of every generated trace are unchanged.
//
// Events are stored in fixed-size chunks, so an event is never copied
// while the trace grows. SortedEvents orders them with a stable LSD
// radix sort on At (two 15-bit digits), using the chunks as its scratch
// buffer, so the whole construction holds at most the chunks plus the
// exactly-sized result. Traces with an At outside [0, 2^30) fall back to
// the stable comparison sort. The zero Builder is ready to use.
type Builder struct {
	full [][]Event // filled chunks, each of length chunkLen
	tail []Event   // the chunk being filled
	// keys is the bitwise OR of every added At as a uint64: it is below
	// 2^30 exactly when every At lies in the radix key range, and its
	// bit length says how many digits the radix sort needs.
	keys uint64
}

const (
	chunkShift = 14
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1

	digitBits = 15
	digitSize = 1 << digitBits
	digitMask = digitSize - 1
	radixKeys = 1 << (2 * digitBits) // At must be below this for the radix sort

	// radixMin is the smallest trace the radix sort handles. Below it
	// the comparison sort wins: on page-major input the two cross near
	// 2-3k events, where the two 2^15-entry digit counts dominate.
	radixMin = 1 << 12
)

// Add appends one event.
func (b *Builder) Add(e Event) {
	if len(b.tail) == cap(b.tail) {
		b.grow()
	}
	b.tail = append(b.tail, e)
	b.keys |= uint64(e.At)
}

// grow retires the full tail chunk and starts a new one.
func (b *Builder) grow() {
	if b.tail != nil {
		b.full = append(b.full, b.tail)
	}
	b.tail = make([]Event, 0, chunkLen)
}

// count returns the number of events added so far.
func (b *Builder) count() int { return len(b.full)*chunkLen + len(b.tail) }

// SortedEvents returns every added event ordered by At, ties in the
// order they were added, in a slice of exactly as many events as were
// added (nil when none were). It resets the Builder.
func (b *Builder) SortedEvents() []Event {
	n := b.count()
	if n == 0 {
		return nil
	}
	chunks := append(b.full, b.tail)
	keys := b.keys
	*b = Builder{}

	out := make([]Event, n)
	if n < radixMin || keys >= radixKeys {
		concat(out, chunks)
		sortStable(out)
		return out
	}

	// Count both digits in one pass, then turn counts into bucket
	// start offsets.
	counts := new([2][digitSize]int)
	for _, c := range chunks {
		for _, e := range c {
			counts[0][e.At&digitMask]++
			counts[1][e.At>>digitBits]++
		}
	}
	for d := range counts {
		sum := 0
		for i, c := range counts[d] {
			counts[d][i] = sum
			sum += c
		}
	}

	// Low digit: chunks -> out. When no At reaches 2^15 the high digit
	// is zero everywhere and this pass alone sorts.
	pos := &counts[0]
	for _, c := range chunks {
		for _, e := range c {
			k := e.At & digitMask
			out[pos[k]] = e
			pos[k]++
		}
	}
	if keys < digitSize {
		return out
	}

	// High digit: out -> chunks, addressed as one segmented array, then
	// copy back.
	for i := range chunks {
		chunks[i] = chunks[i][:chunkLen]
	}
	pos = &counts[1]
	for _, e := range out {
		k := e.At >> digitBits
		p := pos[k]
		chunks[p>>chunkShift][p&chunkMask] = e
		pos[k]++
	}
	concat(out, chunks)
	return out
}

// concat copies the chunks, in order, into dst until dst is full.
func concat(dst []Event, chunks [][]Event) {
	for _, c := range chunks {
		dst = dst[copy(dst, c):]
	}
}
