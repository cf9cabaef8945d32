package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"memcon/internal/trace"
)

// digestFile pins the exact output of Generate and GenerateReads for
// every application at settings beyond the experiment goldens. Each
// line is "<kind> <app> <seed> <scale> <events> <sha256>", where the
// digest covers the trace's Name, Duration and Events (see
// traceDigest). The file was recorded before the chunked builder and
// radix pass replaced append-then-stable-sort, so it pins that the new
// construction reproduces the old bytes.
const digestFile = "testdata/generate_digests.txt"

// digestSettings are the (seed, scale) pairs the digest file covers.
var digestSettings = []struct {
	seed  int64
	scale float64
}{{42, 0.05}, {7, 0.2}, {1, 1.0}}

// traceDigest hashes the trace's name, duration and events in a fixed
// little-endian layout: len(name), name, duration, len(events), then
// (page, at) per event.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	buf := make([]byte, 0, 64<<10)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(tr.Name)))
	buf = append(buf, tr.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tr.Duration))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(tr.Events)))
	for _, e := range tr.Events {
		if len(buf)+12 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint32(buf, e.Page)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.At))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// digestLine renders one digest-file line.
func digestLine(kind, app string, seed int64, scale float64, tr *trace.Trace) string {
	return fmt.Sprintf("%s %s %d %g %d %s", kind, app, seed, scale, len(tr.Events), traceDigest(tr))
}

func TestGenerateDigests(t *testing.T) {
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{} // "<kind> <app> <seed> <scale>" -> full line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 6 {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[strings.Join(fields[:4], " ")] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want, got := len(Apps())*2*len(digestSettings), len(want); got != want {
		t.Fatalf("%s has %d entries, want %d (12 apps x 2 kinds x %d settings)", digestFile, got, want, len(digestSettings))
	}

	for _, s := range digestSettings {
		if s.scale >= 1 && testing.Short() {
			continue
		}
		for _, app := range Apps() {
			for _, kind := range []string{"writes", "reads"} {
				var tr *trace.Trace
				if kind == "writes" {
					tr = app.Generate(s.seed, s.scale)
				} else {
					tr = app.GenerateReads(s.seed, s.scale)
				}
				got := digestLine(kind, app.Name, s.seed, s.scale, tr)
				key := strings.Join(strings.Fields(got)[:4], " ")
				if want[key] != got {
					t.Errorf("%s digest changed:\n got %s\nwant %s", key, got, want[key])
				}
			}
		}
	}
}
