package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/stats"
	"tcast/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from this run")

// The golden digests pin every rendered table at a fixed seed and trial
// count, so "the tables are byte-identical" is a test result rather than a
// hand check. go test -run TestGoldenDigests -update rewrites the file.
const (
	digestSeed = 2011
	digestRuns = 20
	digestPath = "testdata/digests.json"
)

// digestFaultSpec and digestRetry are the faulted configuration: every
// injector knob at once, with a two-retry initiator policy.
const digestFaultSpec = "burst=8,frac=0.2,churn=0.002,recover=0.1,skew=0.01"

var digestRetry = query.RetryPolicy{MaxRetries: 2, Backoff: 1}

// digestFile is testdata/digests.json. Figs holds one digest per
// registered experiment; Faulted the fig1/fig5 tables and audit statistics
// under the fault spec; Observed fully observed runs of fig1, tab-acc and
// ext-faults: the table, the encoded span trace, the audit statistics,
// the sorted bus events and the per-poll metrics series.
type digestFile struct {
	Seed     uint64            `json:"seed"`
	Runs     int               `json:"runs"`
	Figs     map[string]string `json:"figs"`
	Faulted  map[string]string `json:"faulted"`
	Observed map[string]string `json:"observed"`
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestTable renders a table for its digest. ext-scale's µs and KB
// series depend on the machine, so only its queries series is digested.
func digestTable(id string, tab *stats.Table) string {
	if id == "ext-scale" {
		only := *tab
		only.Series = nil
		for _, s := range tab.Series {
			if s.Name == "queries" {
				only.Series = append(only.Series, s)
			}
		}
		tab = &only
	}
	return sha([]byte(Render(tab)))
}

func computeDigests(t *testing.T) digestFile {
	t.Helper()
	f := digestFile{
		Seed: digestSeed, Runs: digestRuns,
		Figs: map[string]string{}, Faulted: map[string]string{}, Observed: map[string]string{},
	}
	for _, e := range All() {
		if e.ID == "ext-scale" && testing.Short() {
			continue
		}
		tab, err := e.Run(Options{Runs: digestRuns, Seed: digestSeed})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		f.Figs[e.ID] = digestTable(e.ID, tab)
	}

	fcfg, err := faults.ParseSpec(digestFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1", "fig5"} {
		col := &audit.Collector{}
		tab := runDigest(t, id, Options{Runs: digestRuns, Seed: digestSeed, Faults: &fcfg, Retry: digestRetry, Audit: col})
		f.Faulted[id] = digestTable(id, tab)
		f.Faulted[id+"/audit"] = auditDigest(t, col)
	}

	for _, id := range []string{"fig1", "tab-acc", "ext-faults"} {
		col, tb, bus, reg := &audit.Collector{}, trace.NewBuilder(), obs.NewBus(), metrics.New()
		var (
			mu     sync.Mutex
			events []string
		)
		bus.Subscribe(obs.SinkFunc(func(e obs.Event) {
			// Trials publish from worker goroutines: drop the
			// scheduling-ordered sequence number and sort, so the digest
			// is of the event set.
			e.Seq = 0
			mu.Lock()
			events = append(events, fmt.Sprintf("%+v", e))
			mu.Unlock()
		}))
		tab := runDigest(t, id, Options{Runs: digestRuns, Seed: digestSeed, Trace: tb, Audit: col, Obs: bus, Metrics: reg})
		f.Observed[id] = digestTable(id, tab)
		var enc bytes.Buffer
		if err := trace.Encode(&enc, tb.Trace()); err != nil {
			t.Fatal(err)
		}
		f.Observed[id+"/trace"] = sha(enc.Bytes())
		f.Observed[id+"/audit"] = auditDigest(t, col)
		sort.Strings(events)
		f.Observed[id+"/events"] = sha([]byte(strings.Join(events, "\n")))
		f.Observed[id+"/metrics"] = metricsDigest(t, reg)
	}
	return f
}

// metricsDigest digests the metrics and audit layers' series in reg. Their
// observations are integer-valued, so counters and histogram sums come
// out the same in any worker order; the sweep driver's wall-clock series
// are left out.
func metricsDigest(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	keep := map[string]bool{
		metrics.MetricPolls: true, metrics.MetricNodesPolled: true, metrics.MetricSessions: true,
		metrics.MetricBinSize: true, metrics.MetricSessionPolls: true, metrics.MetricSessionNodes: true,
		audit.MetricAuditPolls: true, audit.MetricAuditSessions: true, audit.MetricAuditViolations: true,
	}
	kept := func(name string) bool {
		base, _, _ := strings.Cut(name, "{")
		return keep[base]
	}
	s := reg.Snapshot()
	var only metrics.Snapshot
	for _, c := range s.Counters {
		if kept(c.Name) {
			only.Counters = append(only.Counters, c)
		}
	}
	for _, h := range s.Histograms {
		if kept(h.Name) {
			only.Histograms = append(only.Histograms, h)
		}
	}
	if len(only.Counters) == 0 {
		t.Fatal("metrics digest: no per-poll series recorded")
	}
	var b bytes.Buffer
	if err := metrics.WriteText(&b, only); err != nil {
		t.Fatal(err)
	}
	return sha(b.Bytes())
}

// auditDigest digests a collector's full statistics, every wrong-decision
// row included.
func auditDigest(t *testing.T, col *audit.Collector) string {
	t.Helper()
	data, err := json.Marshal(col.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return sha(data)
}

func runDigest(t *testing.T, id string, o Options) *stats.Table {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tab
}

// TestGoldenDigests checks every experiment's rendered table, the faulted
// tables and the observed runs' traces, audit statistics and event streams
// against testdata/digests.json.
func TestGoldenDigests(t *testing.T) {
	got := computeDigests(t)
	if *update {
		if testing.Short() {
			t.Fatal("-update needs the full run (ext-scale is skipped under -short)")
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	var want digestFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != digestSeed || want.Runs != digestRuns {
		t.Fatalf("%s recorded at seed %d runs %d, test runs seed %d runs %d",
			digestPath, want.Seed, want.Runs, digestSeed, digestRuns)
	}
	check := func(group string, want, got map[string]string) {
		for key, w := range want {
			g, ok := got[key]
			if !ok {
				if key == "ext-scale" && testing.Short() {
					continue
				}
				t.Errorf("%s/%s: not computed", group, key)
				continue
			}
			if g != w {
				t.Errorf("%s/%s: digest %.12s, golden %.12s", group, key, g, w)
			}
		}
		for key := range got {
			if _, ok := want[key]; !ok {
				t.Errorf("%s/%s: no golden digest (run with -update)", group, key)
			}
		}
	}
	check("figs", want.Figs, got.Figs)
	check("faulted", want.Faulted, got.Faulted)
	check("observed", want.Observed, got.Observed)
}
