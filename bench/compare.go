package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of the repo's BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkSpec(root string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// resultSet is every result file of one directory: the values of each
// (workload, metric) across runs, and the runs' host stamps.
type resultSet struct {
	values map[string]map[string][]float64
	hosts  []hostStamp
}

func loadResults(dir string) (resultSet, error) {
	set := resultSet{values: map[string]map[string][]float64{}}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return set, err
	}
	if len(paths) == 0 {
		return set, fmt.Errorf("%s: no result files", dir)
	}
	for _, p := range paths {
		f, err := readResultFile(p)
		if err != nil {
			return set, err
		}
		set.hosts = append(set.hosts, f.Host)
		for _, w := range f.Workloads {
			if set.values[w.Workload] == nil {
				set.values[w.Workload] = map[string][]float64{}
			}
			for name, m := range w.Metrics {
				set.values[w.Workload][name] = append(set.values[w.Workload][name], m.Value)
			}
		}
	}
	return set, nil
}

// verdict judges B against A for one metric: "regressed" or "improved"
// when the medians differ by more than bound in that direction, "ok"
// within it, and "unresolved" when either side's spread between quartiles
// (as a share of its median) exceeds the bound, unless every B run is
// better than every A run.
func verdict(better string, bound float64, a, b []float64) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	if ma == 0 || mb == 0 {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	if max((q3a-q1a)/ma, (q3b-q1b)/mb) > bound {
		if allBetter(better, a, b) {
			return "improved"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	}
	return "ok"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(better string, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

// differentHosts returns the first pair of stamps, one from each side,
// that describe different machines.
func differentHosts(a, b []hostStamp) (hostStamp, hostStamp, bool) {
	for _, ha := range a {
		for _, hb := range b {
			if !ha.sameHost(hb) {
				return ha, hb, true
			}
		}
	}
	return hostStamp{}, hostStamp{}, false
}

// compareDirs prints, for every (workload, metric) present on both sides,
// each side's median and quartiles and the verdict against the metric's
// BENCHMARK.json bound. Per-layer metrics have no bound and get none. It
// returns 1 when any metric regressed.
func compareDirs(w io.Writer, root, dirA, dirB string) int {
	spec, err := readBenchmarkSpec(root)
	if err != nil {
		return fail(err)
	}
	a, err := loadResults(dirA)
	if err != nil {
		return fail(err)
	}
	b, err := loadResults(dirB)
	if err != nil {
		return fail(err)
	}
	if ha, hb, differ := differentHosts(a.hosts, b.hosts); differ {
		fmt.Fprintf(w, "WARNING: host stamps differ, a change may be the machine's:\n  A %s\n  B %s\n", ha, hb)
	}
	gated := map[string]metricSpec{}
	for _, m := range spec.EndToEnd {
		gated[m.Name] = m
	}
	regressed := 0
	fmt.Fprintf(w, "%-16s %-40s %-34s %-34s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, wl := range workloadNames {
		names := make([]string, 0, len(a.values[wl]))
		for n := range a.values[wl] {
			if _, ok := b.values[wl][n]; ok {
				names = append(names, n)
			}
		}
		sort.Slice(names, func(i, j int) bool {
			_, gi := gated[names[i]]
			_, gj := gated[names[j]]
			if gi != gj {
				return gi
			}
			return names[i] < names[j]
		})
		for _, n := range names {
			va, vb := a.values[wl][n], b.values[wl][n]
			v := "no bound"
			if m, ok := gated[n]; ok {
				v = verdict(m.Better, m.Bound, va, vb)
			}
			if v == "regressed" {
				regressed++
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			fmt.Fprintf(w, "%-16s %-40s %-34s %-34s %+7.1f%%  %s\n", wl, n,
				fmt.Sprintf("%.5g [%.5g, %.5g]", ma, q1a, q3a),
				fmt.Sprintf("%.5g [%.5g, %.5g]", mb, q1b, q3b),
				100*(mb-ma)/ma, v)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d metric(s) regressed\n", regressed)
		return 1
	}
	return 0
}
