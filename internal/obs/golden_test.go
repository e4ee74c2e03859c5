package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"tcast/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/sketch.json from this run")

// sketchGoldenPath holds the SHA-256 of the sketch sink's telemetry bytes
// per configuration.
const sketchGoldenPath = "testdata/sketch.json"

// goldenVerdicts feeds s a fixed stream: 5000 session verdicts over three
// session names with spread, heavy-tailed and zero costs, trial-less
// verdicts, and non-verdict events the sink must ignore.
func goldenVerdicts(s *SketchSink) {
	names := []string{"2tbins", "abns", "exp-increase"}
	for i := 0; i < 5000; i++ {
		polls := 1 + (i*37)%101 + i%7
		slots := int64((i*i)%997) * 3
		if i%97 == 0 {
			slots = int64(100000 + i)
		}
		if i%11 == 0 {
			slots = 0
		}
		trial := i
		if i%13 == 0 {
			trial = -1
		}
		s.OnEvent(verdict(names[i%len(names)], trial, polls, slots))
		if i%50 == 0 {
			s.OnEvent(Event{Kind: KindPoll, Session: "2tbins", Trial: i, Polls: 9999, Slots: 9999})
		}
	}
}

// sketchDigest hashes every byte the sink exposes: its snapshot JSON, its
// exit summary and, with a registry, the registry's text and Prometheus
// dumps.
func sketchDigest(t *testing.T, reg *metrics.Registry) string {
	s := NewSketchSink(reg)
	goldenVerdicts(s)
	h := sha256.New()
	data, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	h.Write(data)
	h.Write([]byte(s.Summary()))
	if reg != nil {
		snap := reg.Snapshot()
		if err := metrics.WriteText(h, snap); err != nil {
			t.Fatal(err)
		}
		if err := metrics.WritePrometheus(h, snap); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSketchSinkGolden pins the sketch sink's telemetry bytes absolutely:
// TestSketchSinkDeterministic compares the sink with itself, so a change
// that moved every quantile, exemplar or dump line the same way would
// pass it; this test would not. go test -run TestSketchSinkGolden
// -update rewrites the file.
func TestSketchSinkGolden(t *testing.T) {
	got := map[string]string{
		"registry": sketchDigest(t, metrics.New()),
		"bare":     sketchDigest(t, nil),
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sketchGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(sketchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d configurations, test runs %d", sketchGoldenPath, len(want), len(got))
	}
	for name, sum := range got {
		if sum != want[name] {
			t.Errorf("%s: telemetry digest %.12s, golden %.12s", name, sum, want[name])
		}
	}
}
