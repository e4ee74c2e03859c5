package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostStamp identifies the machine and code a result was measured on, so
// that two result sets from different hosts are never read as a change in
// the code.
type hostStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	// Durations is each workload's wall time in this run, set-up included.
	Durations map[string]float64 `json:"durations_s"`
}

func newHostStamp(root string, seed uint64) hostStamp {
	return hostStamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(root),
		Seed:       seed,
		Durations:  map[string]float64{},
	}
}

// sameHost reports whether two stamps describe the same machine and
// toolchain; commit, seed and durations are expected to differ.
func (h hostStamp) sameHost(o hostStamp) bool {
	return h.GoVersion == o.GoVersion && h.GOOS == o.GOOS && h.GOARCH == o.GOARCH &&
		h.CPU == o.CPU && h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS
}

func (h hostStamp) String() string {
	return fmt.Sprintf("host: %s %s/%s, %s, nproc %d, GOMAXPROCS %d, commit %s, seed %d",
		h.GoVersion, h.GOOS, h.GOARCH, h.CPU, h.NumCPU, h.GOMAXPROCS, h.Commit, h.Seed)
}

// cpuTimes reads the steal and total jiffies of all CPUs from /proc/stat;
// ok is false where the file or its steal column is missing.
func cpuTimes() (steal, total int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return steal, total, true
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is `git rev-parse HEAD` in root, or "unknown" when root is not
// a git checkout. The ceiling keeps git from reporting the HEAD of a
// repository that merely contains root.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
