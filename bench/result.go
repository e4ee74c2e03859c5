package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// The child protocol: the child prints readyLine once its set-up is done
// (the parent times set-up to it) and its report as the last line, after
// reportPrefix. Any other line is a progress note.
const (
	readyLine    = "bench: ready"
	reportPrefix = "bench-report "
)

const resultSchema = "tcast-bench-result/1"

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a child sends its parent.
type report struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Setup holds set-up samples in seconds when the child measures its
	// own set-up; the parent's spawn timings are used otherwise.
	Setup []float64 `json:"setup,omitempty"`
	// RSSMB is the peak RSS of the process doing the work when that is not
	// the child itself (tcastd for serve-http).
	RSSMB float64  `json:"rss_mb,omitempty"`
	Notes []string `json:"notes,omitempty"`
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

// set records a metric. A value with no finite reading (a percentile made
// of failed operations) is reported as the largest float, the worst value
// for every lower-is-better metric; the failures already mark the run
// incorrect.
func (r *report) set(name, unit string, v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = math.MaxFloat64
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

// summary is the one-line JSON object a single-workload run ends with.
func (w workloadResult) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, w.Metrics}
}

// resultFile is one invocation's host-stamped output.
type resultFile struct {
	Schema    string           `json:"schema"`
	Host      hostStamp        `json:"host"`
	Trace     int              `json:"trace"`
	Seconds   float64          `json:"seconds"`
	Short     bool             `json:"short,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

// write stores the file under dir with a timestamped name.
func (f resultFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	name := fmt.Sprintf("result-%s.json", time.Now().UTC().Format("20060102T150405.000000000"))
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return resultFile{}, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return resultFile{}, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return resultFile{}, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return f, nil
}
