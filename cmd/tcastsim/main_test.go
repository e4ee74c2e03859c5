package main

import (
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/experiment"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/query"
	"tcast/internal/rng"
)

func TestBuildTrialAllAlgorithms(t *testing.T) {
	cfg := fastsim.DefaultConfig()
	for alg, wantName := range map[string]string{
		"2tbins":   "2tBins",
		"exp":      "ExpIncrease",
		"abns-t":   "ABNS(p0=t)",
		"abns-2t":  "ABNS(p0=2t)",
		"probabns": "ProbABNS",
		"oracle":   "Oracle",
		"csma":     "CSMA",
		"seq":      "Sequential",
	} {
		trial, name, err := buildTrial(alg, 32, 8, 10, cfg, faults.Config{}, query.RetryPolicy{}, metrics.New(), nil, 1, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if name != wantName {
			t.Errorf("%s: name = %q, want %q", alg, name, wantName)
		}
		cost, err := trial(0, rng.New(1))
		if err != nil {
			t.Fatalf("%s trial: %v", alg, err)
		}
		if cost < 0 {
			t.Errorf("%s: negative cost %v", alg, cost)
		}
	}
}

func TestBuildTrialUnknownAlgorithm(t *testing.T) {
	if _, _, err := buildTrial("nope", 32, 8, 10, fastsim.DefaultConfig(), faults.Config{}, query.RetryPolicy{}, nil, nil, 1, nil, nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestBuildTrialAudited(t *testing.T) {
	col := &audit.Collector{}
	trial, _, err := buildTrial("2tbins", 32, 8, 10, fastsim.DefaultConfig(), faults.Config{}, query.RetryPolicy{}, nil, nil, 1, col, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := trial(i, rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	col.Flush()
	s := col.Stats()
	if s.Sessions != 5 {
		t.Fatalf("graded %d sessions, want 5", s.Sessions)
	}
	// Lossless fastsim: every session correct, zero violations.
	if s.Outcomes[audit.OutcomeCorrect] != 5 || s.Violations() != 0 {
		t.Fatalf("lossless audit stats: %+v", s)
	}
}

func TestBuildTrialAuditRejectsBaselines(t *testing.T) {
	col := &audit.Collector{}
	for _, alg := range []string{"csma", "seq"} {
		if _, _, err := buildTrial(alg, 32, 8, 10, fastsim.DefaultConfig(), faults.Config{}, query.RetryPolicy{}, nil, nil, 1, col, nil); err == nil {
			t.Fatalf("%s accepted -audit", alg)
		}
	}
}

func TestBuildTrialDeterministic(t *testing.T) {
	trial, _, err := buildTrial("2tbins", 64, 8, 12, fastsim.DefaultConfig(), faults.Config{}, query.RetryPolicy{}, nil, nil, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := trial(0, rng.New(7))
	b, _ := trial(1, rng.New(7))
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

func TestPrintTraceRejectsBaselines(t *testing.T) {
	if err := printTrace(io.Discard, "csma", 16, 4, 4, fastsim.DefaultConfig(), faults.Config{}, query.RetryPolicy{}, 1); err == nil {
		t.Fatal("baseline trace accepted")
	}
}

func TestPrintTraceRuns(t *testing.T) {
	if err := printTrace(io.Discard, "probabns", 16, 4, 4, fastsim.DefaultConfig(), faults.Config{}, query.RetryPolicy{}, 1); err != nil {
		t.Fatal(err)
	}
}

// TestPrintTraceIsSweepTrialZero: -dump prints the session the sweep runs
// as its trial 0, faults and retries included, so it lists exactly as many
// polls as that trial's query count.
func TestPrintTraceIsSweepTrialZero(t *testing.T) {
	fcfg, err := faults.ParseSpec("burst=4,frac=0.3,churn=0.01")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		fcfg  faults.Config
		retry query.RetryPolicy
	}{
		{"bare", faults.Config{}, query.RetryPolicy{}},
		{"faulted", fcfg, query.RetryPolicy{MaxRetries: 2, Backoff: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n, th, x, seed = 64, 8, 12, 2011
			cfg := fastsim.DefaultConfig()
			trial, _, err := buildTrial("2tbins", n, th, x, cfg, c.fcfg, c.retry, nil, nil, 1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			values, err := experiment.RunTrials(3, 1, rng.New(seed), trial)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := printTrace(&out, "2tbins", n, th, x, cfg, c.fcfg, c.retry, seed); err != nil {
				t.Fatal(err)
			}
			polls := 0
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "#") {
					polls++
				}
			}
			if want := int(values[0]); polls != want {
				t.Fatalf("dumped %d polls, sweep trial 0 made %d queries\n%s", polls, want, out.String())
			}
			if !strings.Contains(out.String(), "polls) ---") {
				t.Fatalf("dump has no session header:\n%s", out.String())
			}
		})
	}
}

func TestBuildTrialFaultedAndRetried(t *testing.T) {
	fcfg, err := faults.ParseSpec("burst=4,frac=0.3,churn=0.01")
	if err != nil {
		t.Fatal(err)
	}
	retry := query.RetryPolicy{MaxRetries: 2, Backoff: 1}
	trial, _, err := buildTrial("2tbins", 32, 8, 10, fastsim.DefaultConfig(), fcfg, retry, nil, nil, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if cost, err := trial(i, rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		} else if cost < 0 {
			t.Fatalf("trial %d: negative cost %v", i, cost)
		}
	}
}

// TestMain lets a test re-run this binary as tcastsim itself: with
// TCASTSIM_MAIN set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TCASTSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsSpecsTcastdRejects: tcastsim checks its inputs by the same
// session rules tcastd applies to a request, so each spec below, which
// tcastd answers with a 400, makes tcastsim exit non-zero before it
// prints a result.
func TestRejectsSpecsTcastdRejects(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"valid", []string{"-runs", "2"}, true},
		{"valid baseline", []string{"-runs", "2", "-alg", "csma"}, true},
		{"negative retries", []string{"-runs", "2", "-retries", "-1"}, false},
		{"negative backoff", []string{"-runs", "2", "-backoff", "-1"}, false},
		{"zero threshold", []string{"-runs", "2", "-t", "0"}, false},
		{"threshold above n", []string{"-runs", "2", "-n", "128", "-t", "200"}, false},
		{"empty field", []string{"-runs", "2", "-n", "0", "-x", "0"}, false},
		{"x above n", []string{"-runs", "2", "-n", "16", "-t", "4", "-x", "17"}, false},
		{"baseline zero threshold", []string{"-runs", "2", "-alg", "seq", "-t", "0"}, false},
		{"unknown algorithm", []string{"-runs", "2", "-alg", "nope"}, false},
		{"unknown model", []string{"-runs", "2", "-model", "3+"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "TCASTSIM_MAIN=1")
			out, err := cmd.CombinedOutput()
			if c.ok && err != nil {
				t.Fatalf("%v: %v\n%s", c.args, err, out)
			}
			if !c.ok {
				if _, exited := err.(*exec.ExitError); !exited {
					t.Fatalf("%v: exit status %v, want non-zero\n%s", c.args, err, out)
				}
			}
		})
	}
}
