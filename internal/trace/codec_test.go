package trace_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tcast/internal/rng"
	"tcast/internal/trace"
)

// randomTrace builds a pseudo-random but deterministic span forest, used
// by the round-trip property test below.
func randomTrace(r *rng.Source) *trace.Trace {
	b := trace.NewBuilder()
	b.SetMeta(trace.StringAttr("cmd", "prop"), trace.Int64Attr("seed", 42))
	roots := 1 + r.Intn(3)
	for i := 0; i < roots; i++ {
		b.Begin(trace.KindExperiment, "exp")
		depth := 1 + r.Intn(3)
		for d := 0; d < depth; d++ {
			sp := b.Begin(trace.SpanKind(1+r.Intn(trace.NumSpanKinds-1)), "span")
			b.Advance(int64(r.Intn(10)))
			if r.Intn(2) == 0 {
				sp.SetAttr(
					trace.IntAttr("x", r.Intn(100)),
					trace.FloatAttr("f", float64(r.Intn(1000))/7),
					trace.BoolAttr("b", r.Intn(2) == 0),
				)
			}
		}
		for d := 0; d < depth; d++ {
			b.End()
		}
		b.End()
	}
	return b.Trace()
}

// jsonEncode is the reflective encoder Encode replaced, kept as its
// oracle: encoding/json's Encoder over the header and span record types,
// one value per line.
func jsonEncode(w io.Writer, t *trace.Trace) error {
	type header struct {
		Schema  string       `json:"schema"`
		Version int          `json:"version"`
		Unit    string       `json:"unit"`
		Meta    []trace.Attr `json:"meta,omitempty"`
	}
	type spanRecord struct {
		ID     int          `json:"id"`
		Parent int          `json:"parent"`
		Kind   string       `json:"kind"`
		Name   string       `json:"name"`
		Start  int64        `json:"start"`
		End    int64        `json:"end"`
		Attrs  []trace.Attr `json:"attrs,omitempty"`
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Schema: "tcast-trace", Version: trace.Version, Unit: "slot", Meta: t.Meta}); err != nil {
		return err
	}
	id := 0
	var walk func(parent int, sp *trace.Span) error
	walk = func(parent int, sp *trace.Span) error {
		self := id
		id++
		if err := enc.Encode(spanRecord{ID: self, Parent: parent, Kind: sp.Kind.String(), Name: sp.Name,
			Start: sp.Start, End: sp.End, Attrs: sp.Attrs}); err != nil {
			return err
		}
		for _, c := range sp.Children {
			if err := walk(self, c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if err := walk(-1, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// assertMatchesOracle fails t unless Encode writes exactly jsonEncode's
// bytes for tr.
func assertMatchesOracle(t *testing.T, tr *trace.Trace) {
	t.Helper()
	var got, want bytes.Buffer
	if err := trace.Encode(&got, tr); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := jsonEncode(&want, tr); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Encode differs from encoding/json:\n%q\nvs\n%q", got.Bytes(), want.Bytes())
	}
}

// TestEncodeMatchesJSON: Encode writes encoding/json's bytes for random
// traces, for one large enough to cross several write chunks, and for
// the escapes the fast string path must hand over.
func TestEncodeMatchesJSON(t *testing.T) {
	root := rng.New(7)
	for i := 0; i < 50; i++ {
		assertMatchesOracle(t, randomTrace(root.Split(uint64(i))))
	}
	assertMatchesOracle(t, wideTrace(5000))
	assertMatchesOracle(t, &trace.Trace{})
	for _, s := range fuzzStrings {
		assertMatchesOracle(t, stringTrace(s, s, s, -3, 4, 0xff))
	}
}

// wideTrace is one session span over polls attributed the way the
// observed figure sweeps attribute them.
func wideTrace(polls int) *trace.Trace {
	b := trace.NewBuilder()
	b.SetMeta(trace.StringAttr("cmd", "wide"))
	b.Begin(trace.KindSession, "2tBins").SetAttr(trace.IntAttr("n", polls))
	for i := 0; i < polls; i++ {
		sp := b.Begin(trace.KindPoll, "poll")
		b.Advance(1)
		sp.SetAttr(trace.IntAttr("bin_size", i%17), trace.StringAttr("kind", "empty"))
		b.End()
	}
	b.End()
	return b.Trace()
}

// fuzzStrings seed FuzzEncodeMatchesJSON and TestEncodeMatchesJSON with
// every class of byte encoding/json escapes or rewrites.
var fuzzStrings = []string{
	"", "plain", "<a&b>", `q"uote`, `back\slash`, "tab\tnl\nnul\x00del\x7f",
	"bad\xffutf8\xc3", "line\u2028para\u2029", "é ünïcode ☃",
}

// stringTrace builds a forest from one fuzzed name, attr key and value:
// shape's bits choose, span by span, between a child of the previous
// span and a new root, and whether the span and the trace carry attrs.
func stringTrace(name, key, value string, start, end int64, shape uint8) *trace.Trace {
	tr := &trace.Trace{}
	if shape&1 != 0 {
		tr.Meta = []trace.Attr{{Key: key, Value: value}, {Key: value, Value: name}}
	}
	var prev *trace.Span
	for i := 0; i < 4; i++ {
		sp := &trace.Span{Kind: trace.SpanKind(i + int(shape>>6)), Name: name, Start: start - int64(i), End: end + int64(i)}
		if shape&(2<<i) != 0 {
			sp.Attrs = []trace.Attr{{Key: key, Value: value}}
		}
		if prev == nil || shape&(32>>i) != 0 {
			tr.Roots = append(tr.Roots, sp)
		} else {
			prev.Children = append(prev.Children, sp)
		}
		prev = sp
	}
	return tr
}

// FuzzEncodeMatchesJSON: for any names, attr keys and values, and any
// span times, Encode writes exactly the bytes encoding/json writes.
func FuzzEncodeMatchesJSON(f *testing.F) {
	for i, s := range fuzzStrings {
		f.Add(s, "k", s, int64(i), int64(-i), uint8(i*37))
	}
	f.Add("<x>", "\u2028", "\xfe\xff", int64(-1)<<63, int64(1)<<62, uint8(0xff))
	f.Fuzz(func(t *testing.T, name, key, value string, start, end int64, shape uint8) {
		assertMatchesOracle(t, stringTrace(name, key, value, start, end, shape))
	})
}

// TestEncodeAllocs pins Encode's allocations at its one buffer, whatever
// the span count.
func TestEncodeAllocs(t *testing.T) {
	for _, polls := range []int{10, 20000} {
		tr := wideTrace(polls)
		allocs := testing.AllocsPerRun(5, func() {
			if err := trace.Encode(io.Discard, tr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("Encode of %d polls: %v allocs, want at most 2", polls, allocs)
		}
	}
}

// TestCodecRoundTripProperty is the encode→decode→encode property: for
// many pseudo-random traces the second encoding must be byte-identical to
// the first — the invariant behind same-seed trace files comparing equal.
func TestCodecRoundTripProperty(t *testing.T) {
	root := rng.New(2011)
	for i := 0; i < 50; i++ {
		tr := randomTrace(root.Split(uint64(i)))
		enc1, err := encodeBytes(tr)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		dec, err := trace.Decode(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		enc2, err := encodeBytes(dec)
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("case %d: encode→decode→encode not byte-identical:\n%s\nvs\n%s", i, enc1, enc2)
		}
		if d := trace.Diff(tr, dec); !d.Identical {
			t.Fatalf("case %d: decoded trace differs: %s", i, d)
		}
	}
}

func TestCodecFileRoundTrip(t *testing.T) {
	tr := randomTrace(rng.New(5))
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(tr, got); !d.Identical {
		t.Fatalf("file round trip differs: %s", d)
	}
}

// TestWriteFileStreams: WriteFile writes exactly Encode's bytes for
// a trace many encode chunks long, and streams them, so the bytes it
// allocates do not grow with the trace.
func TestWriteFileStreams(t *testing.T) {
	dir := t.TempDir()
	written := func(polls int) ([]byte, uint64) {
		tr := wideTrace(polls)
		path := filepath.Join(dir, "t.jsonl")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := trace.WriteFile(path, tr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := encodeBytes(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d polls: file holds %d bytes that differ from Encode's %d", polls, len(got), len(want))
		}
		return got, after.TotalAlloc - before.TotalAlloc
	}
	small, smallBytes := written(10)
	large, largeBytes := written(40000)
	if len(large) < 64<<10 {
		t.Fatalf("large trace is %d bytes, want over 64 KB", len(large))
	}
	// One encode buffer either way; the slack absorbs the runtime's own
	// allocations between the two MemStats reads.
	if largeBytes > smallBytes+16<<10 {
		t.Errorf("WriteFile allocated %d B for %d trace bytes but %d B for %d: not flat",
			largeBytes, len(large), smallBytes, len(small))
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	header := `{"schema":"tcast-trace","version":1,"unit":"slot"}`
	for name, input := range map[string]string{
		"empty":          "",
		"wrong schema":   `{"schema":"nope","version":1}`,
		"wrong version":  `{"schema":"tcast-trace","version":99}`,
		"bad json":       header + "\n{not json",
		"unknown kind":   header + "\n" + `{"id":0,"parent":-1,"kind":"warp","name":"x","start":0,"end":1}`,
		"unseen parent":  header + "\n" + `{"id":0,"parent":7,"kind":"poll","name":"x","start":0,"end":1}`,
		"id out of step": header + "\n" + `{"id":3,"parent":-1,"kind":"poll","name":"x","start":0,"end":1}`,
		// Span 2 names span 0 as parent after span 1 closed it: its
		// re-encoding would renumber the spans 0, 2, 1.
		"parent out of preorder": header + "\n" +
			`{"id":0,"parent":-1,"kind":"poll","name":"a","start":0,"end":1}` + "\n" +
			`{"id":1,"parent":-1,"kind":"poll","name":"b","start":0,"end":1}` + "\n" +
			`{"id":2,"parent":0,"kind":"poll","name":"c","start":0,"end":1}`,
	} {
		if _, err := trace.Decode(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDiffReportsFirstDivergence(t *testing.T) {
	// Diverge only in the second poll's attrs so the enclosing spans stay
	// identical and the diff pinpoints the poll itself.
	mk := func(binSize int) *trace.Trace {
		b := trace.NewBuilder()
		b.Begin(trace.KindSession, "s")
		b.Begin(trace.KindPoll, "p0")
		b.Advance(1)
		b.End()
		sp := b.Begin(trace.KindPoll, "p1")
		b.Advance(1)
		sp.SetAttr(trace.IntAttr("bin_size", binSize))
		b.End()
		b.End()
		return b.Trace()
	}
	if d := trace.Diff(mk(4), mk(4)); !d.Identical {
		t.Fatalf("identical traces diff: %s", d)
	}
	d := trace.Diff(mk(4), mk(8))
	if d.Identical {
		t.Fatal("divergent traces reported identical")
	}
	if !strings.Contains(d.Path, "p1") {
		t.Errorf("divergence path %q does not name p1", d.Path)
	}
	if !strings.Contains(d.String(), "first divergent span") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestDiffMetadata(t *testing.T) {
	a, b := trace.NewBuilder(), trace.NewBuilder()
	a.SetMeta(trace.Int64Attr("seed", 1))
	b.SetMeta(trace.Int64Attr("seed", 2))
	d := trace.Diff(a.Trace(), b.Trace())
	if d.Identical || !strings.Contains(d.Detail, "metadata") {
		t.Fatalf("metadata divergence missed: %+v", d)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	a, b := trace.NewBuilder(), trace.NewBuilder()
	a.Begin(trace.KindSession, "s")
	a.End()
	b.Begin(trace.KindSession, "s")
	b.End()
	b.Begin(trace.KindSession, "extra")
	b.End()
	d := trace.Diff(a.Trace(), b.Trace())
	if d.Identical || !strings.Contains(d.Detail, "ends after") {
		t.Fatalf("length mismatch missed: %+v", d)
	}
}

// FuzzTraceDecode: Decode never panics, and whatever it accepts
// re-encodes to bytes that decode and re-encode identically.
func FuzzTraceDecode(f *testing.F) {
	for i := uint64(0); i < 4; i++ {
		enc, err := encodeBytes(randomTrace(rng.New(i)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(`{"schema":"tcast-trace","version":1,"unit":"slot"}` + "\n" +
		`{"id":0,"parent":-1,"kind":"poll","name":"a","start":0,"end":1}` + "\n" +
		`{"id":1,"parent":0,"kind":"poll","name":"b","start":0,"end":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc1, err := encodeBytes(tr)
		if err != nil {
			t.Fatalf("encode of a decoded trace: %v", err)
		}
		back, err := trace.Decode(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("decode of a re-encoded trace: %v\n%s", err, enc1)
		}
		enc2, err := encodeBytes(back)
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encoding not stable:\n%s\nvs\n%s", enc1, enc2)
		}
	})
}

// encodeBytes renders a trace to a byte slice through Encode.
func encodeBytes(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := trace.Encode(&buf, tr)
	return buf.Bytes(), err
}
