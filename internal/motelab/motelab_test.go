package motelab

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"tcast/internal/obs"
)

func newLab(t *testing.T, cfg Config) *Lab {
	t.Helper()
	lab, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestNewRejectsEmptyTestbed(t *testing.T) {
	if _, err := New(Config{Participants: 0}); err == nil {
		t.Fatal("empty testbed accepted")
	}
}

func TestRunBatchPerfectRadio(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MissProb = 0
	lab := newLab(t, cfg)
	for _, tc := range []struct{ th, x int }{
		{2, 0}, {2, 2}, {2, 12}, {4, 3}, {4, 4}, {6, 6}, {6, 5},
	} {
		st, err := lab.RunBatch(tc.th, tc.x, 20)
		if err != nil {
			t.Fatal(err)
		}
		if st.Trials != 20 {
			t.Fatalf("trials = %d", st.Trials)
		}
		if st.FalsePositives != 0 || st.FalseNegatives != 0 {
			t.Fatalf("t=%d x=%d: errors on a perfect radio: %+v", tc.th, tc.x, st)
		}
	}
}

func TestRunBatchRejectsBadX(t *testing.T) {
	lab := newLab(t, DefaultConfig())
	if _, err := lab.RunBatch(2, -1, 1); err == nil {
		t.Fatal("x=-1 accepted")
	}
	if _, err := lab.RunBatch(2, 13, 1); err == nil {
		t.Fatal("x>n accepted")
	}
}

func TestPaperProtocolErrorProfile(t *testing.T) {
	// The emulated campaign must reproduce the Section IV-D error
	// profile: zero false positives, a small aggregate false-negative
	// rate (the paper reports 1.4%), errors dominated by single-HACK
	// groups, and a miss rate that "slashes down" as HACKs superpose.
	lab := newLab(t, DefaultConfig())
	curves, agg, err := lab.RunPaperProtocol(40)
	if err != nil {
		t.Fatal(err)
	}
	if agg.FalsePositives != 0 {
		t.Fatalf("false positives: %d", agg.FalsePositives)
	}
	rate := agg.ErrorRate()
	if rate <= 0 || rate > 0.06 {
		t.Fatalf("error rate = %v, want small but nonzero (~0.014)", rate)
	}
	if agg.MissedBySuperposition[1] == 0 {
		t.Fatal("no single-HACK misses recorded")
	}
	// Majority of misses at k=1.
	single := agg.MissedBySuperposition[1]
	rest := 0
	for k, v := range agg.MissedBySuperposition {
		if k > 1 {
			rest += v
		}
	}
	if single <= rest {
		t.Fatalf("misses not dominated by single-HACK groups: k=1:%d, k>1:%d", single, rest)
	}
	// Per-query miss rate decreases with superposition when sampled.
	if agg.QueriesBySuperposition[2] > 200 && agg.MissRate(2) >= agg.MissRate(1) {
		t.Fatalf("miss rate did not drop with superposition: k1=%v k2=%v",
			agg.MissRate(1), agg.MissRate(2))
	}

	// Fig 4 shape: for each threshold the mean query count peaks near
	// x = t rather than at the extremes.
	for _, th := range []int{2, 4, 6} {
		peak := curves[th][th]
		if peak <= curves[th][12] {
			t.Errorf("t=%d: cost at x=t (%v) not above x=12 (%v)", th, peak, curves[th][12])
		}
	}
}

func TestHeterogeneousLinks(t *testing.T) {
	// One bad mote (50% HACK loss) among eleven clean ones: the miss
	// events must concentrate on it.
	cfg := DefaultConfig()
	perMote := make([]float64, cfg.Participants)
	const badMote = 7
	perMote[badMote] = 0.5
	cfg.PerMoteMiss = perMote
	lab := newLab(t, cfg)
	st, err := lab.RunBatch(4, 6, 150)
	if err != nil {
		t.Fatal(err)
	}
	bad := st.MissedByMote[badMote]
	if bad == 0 {
		t.Fatal("bad mote recorded no misses")
	}
	others := 0
	for id, v := range st.MissedByMote {
		if id != badMote {
			others += v
		}
	}
	if bad <= others {
		t.Fatalf("misses not concentrated on the bad mote: bad=%d others=%d", bad, others)
	}
	// Clean motes (loss 0) never produce a lone-HACK miss; any "other"
	// misses must come from bins shared with the bad mote, so they are
	// bounded by its count (checked above).
}

func TestPerMoteMissValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerMoteMiss = []float64{0.1} // wrong length
	if _, err := New(cfg); err == nil {
		t.Fatal("mismatched PerMoteMiss length accepted")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := newStats()
	if s.ErrorRate() != 0 || s.AvgQueries() != 0 || s.MissRate(1) != 0 {
		t.Fatal("empty stats not zero")
	}
	s.Trials = 10
	s.FalseNegatives = 1
	s.TotalQueries = 55
	s.QueriesBySuperposition[1] = 20
	s.MissedBySuperposition[1] = 2
	if math.Abs(s.ErrorRate()-0.1) > 1e-12 {
		t.Fatalf("ErrorRate = %v", s.ErrorRate())
	}
	if math.Abs(s.AvgQueries()-5.5) > 1e-12 {
		t.Fatalf("AvgQueries = %v", s.AvgQueries())
	}
	if math.Abs(s.MissRate(1)-0.1) > 1e-12 {
		t.Fatalf("MissRate = %v", s.MissRate(1))
	}

	other := newStats()
	other.Trials = 5
	other.FalsePositives = 1
	other.QueriesBySuperposition[1] = 10
	other.MissedBySuperposition[2] = 3
	s.Merge(other)
	if s.Trials != 15 || s.FalsePositives != 1 || s.QueriesBySuperposition[1] != 30 || s.MissedBySuperposition[2] != 3 {
		t.Fatalf("Merge wrong: %+v", s)
	}
}

func TestDeterministicAcrossLabs(t *testing.T) {
	a := newLab(t, DefaultConfig())
	b := newLab(t, DefaultConfig())
	sa, err := a.RunBatch(4, 6, 30)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.RunBatch(4, 6, 30)
	if err != nil {
		t.Fatal(err)
	}
	if sa.TotalQueries != sb.TotalQueries || sa.FalseNegatives != sb.FalseNegatives {
		t.Fatalf("same seed diverged: %+v vs %+v", sa, sb)
	}
}

// pollBlindRecorder records every event it is shown and the poll counts
// handed to it; it reads no poll events.
type pollBlindRecorder struct {
	events []string
	polls  uint64
}

func (r *pollBlindRecorder) OnEvent(e obs.Event) { r.events = append(r.events, fmt.Sprintf("%+v", e)) }
func (r *pollBlindRecorder) ReadsPolls() bool    { return false }
func (r *pollBlindRecorder) OnPolls(n uint64)    { r.polls += n }

// TestPollCountReplay: a campaign replayed onto a poll-blind bus counts
// every replayed poll exactly, and publishes the same non-poll events
// with the same Seq as onto a bus where a sink reads the polls.
func TestPollCountReplay(t *testing.T) {
	run := func(readPolls bool) (*pollBlindRecorder, int, int) {
		cfg := DefaultConfig()
		cfg.Obs = obs.NewBus()
		rec := &pollBlindRecorder{}
		cfg.Obs.Subscribe(rec)
		read := 0
		if readPolls {
			cfg.Obs.Subscribe(obs.SinkFunc(func(e obs.Event) {
				if e.Kind == obs.KindPoll {
					read++
				}
			}))
		}
		lab := newLab(t, cfg)
		queries := 0
		for _, x := range []int{0, 3, 7} {
			st, err := lab.RunBatch(4, x, 10)
			if err != nil {
				t.Fatal(err)
			}
			queries += st.TotalQueries
		}
		return rec, queries, read
	}
	blind, queries, _ := run(false)
	reading, readQueries, read := run(true)
	if blind.polls != uint64(queries) || queries != readQueries || read != queries {
		t.Fatalf("poll-blind bus counted %d polls, reading bus read %d; campaigns polled %d and %d", blind.polls, read, queries, readQueries)
	}
	var nonPoll []string
	for _, e := range reading.events {
		if !strings.Contains(e, "Kind:poll ") {
			nonPoll = append(nonPoll, e)
		}
	}
	if !slices.Equal(blind.events, nonPoll) {
		t.Fatalf("non-poll events differ:\npoll-blind:\n%s\npoll-reading:\n%s", strings.Join(blind.events, "\n"), strings.Join(nonPoll, "\n"))
	}
}
