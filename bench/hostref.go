package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The host-speed reference. On a shared machine the speed at which this
// program runs changes by up to 2x for minutes at a time, as other tenants
// come and go; no statistic taken within one run removes a change that
// lasts longer than the run. So every timed operation is paired with a run
// of refWork timed right before it, and the benchmark reports the
// operation's time scaled towards the host speed at which refWork takes
// refNominal. README.md records the spreads with and without the scaling.
//
// refWork runs in a helper process of its own, so the workload's heap,
// garbage collector and goroutines do not change its time, and it uses the
// standard library only, so no change to the program can change it either.

// refEnv marks a process as the reference helper; its value is unused.
const refEnv = "TCAST_BENCH_REF"

// refNominal is refWork's time on a 2-vCPU Xeon (the host the bounds were
// calibrated on) in its faster state, so that scaled times read close to
// the times that host measures when nothing else runs.
const refNominal = 900 * time.Microsecond

// refExponent is how strongly a time follows the reference:
// scaled = raw * (refNominal / ref)^refExponent. On that host, work that
// keeps one vCPU busy (scale) moved about half as much as refWork when the
// host's speed changed, and work that keeps both busy (sweeps, serve)
// about as much; README.md gives the measured spreads.
const refExponent = 0.75

// hostRef is a running reference helper.
type hostRef struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startRef starts the reference helper. The caller must stop it.
func startRef() (*hostRef, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &hostRef{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// scale runs refWork once and returns the factor that scales a time
// measured now to the nominal host speed.
func (h *hostRef) scale() (float64, error) {
	if _, err := io.WriteString(h.in, "\n"); err != nil {
		return 0, fmt.Errorf("reference helper: %w", err)
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference helper: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("reference helper answered %q", line)
	}
	return math.Pow(float64(refNominal)/float64(ns), refExponent), nil
}

// stop closes the helper's input, which ends it, and waits for it.
func (h *hostRef) stop() error {
	return errors.Join(h.in.Close(), h.cmd.Wait())
}

// refMain is the helper process: for every line it reads it runs refWork
// twice and answers with the second run's time in nanoseconds. The first
// run refills the caches the workload evicted since the last request, so
// the timed run does not depend on how much memory the workload touches.
// It ends at end of input.
func refMain(stdin io.Reader, stdout io.Writer) int {
	r := bufio.NewReader(stdin)
	w := bufio.NewWriter(stdout)
	for {
		if _, err := r.ReadString('\n'); err != nil {
			return 0
		}
		refWork()
		start := time.Now()
		refWork()
		fmt.Fprintln(w, time.Since(start).Nanoseconds())
		if err := w.Flush(); err != nil {
			return 1
		}
	}
}

// refRecord is refWork's unit of work: a small record encoded, hashed and
// indexed, the mix of formatting, reflection, sorting, hashing, maps and
// allocation typical of Go programs such as this one.
type refRecord struct {
	Name  string             `json:"name"`
	Pad   string             `json:"pad"`
	Vals  []int              `json:"vals"`
	Index map[string]float64 `json:"index"`
}

var refSink int

// refWork is a fixed computation of about a millisecond.
func refWork() {
	seen := make(map[[sha256.Size]byte]int, 256)
	for i := 0; i < 250; i++ {
		r := refRecord{
			Name:  strconv.Itoa(i),
			Pad:   strings.Repeat("x", i%50),
			Vals:  make([]int, i%64),
			Index: map[string]float64{"i": float64(i), fmt.Sprint("k", i): 1},
		}
		for j := range r.Vals {
			r.Vals[j] = (i * 7919 * j) % 1000
		}
		slices.Sort(r.Vals)
		b, err := json.Marshal(r)
		if err != nil {
			panic(err) // a fixed record always encodes
		}
		seen[sha256.Sum256(b)] = i
	}
	refSink += len(seen)
}
