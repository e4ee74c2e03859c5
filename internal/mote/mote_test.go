package mote

import (
	"slices"
	"testing"

	"tcast/internal/core"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
)

func bootLab(t *testing.T, n int, missProb float64, seed uint64) (*Initiator, []*Participant) {
	t.Helper()
	root := rng.New(seed)
	med := radio.NewMedium(radio.Config{MissProb: missProb}, root.Split(1))
	parts := make([]*Participant, n)
	for i := range parts {
		parts[i] = NewParticipant(i)
	}
	return NewInitiator(1<<16, med, parts, root.Split(2)), parts
}

func configure(parts []*Participant, positives ...int) {
	pos := make(map[int]bool)
	for _, p := range positives {
		pos[p] = true
	}
	for _, p := range parts {
		p.Configure(pos[p.ID()])
	}
}

func TestQueryBeforeConfigureFails(t *testing.T) {
	ini, _ := bootLab(t, 4, 0, 1)
	if _, err := ini.Query(); err == nil {
		t.Fatal("unconfigured query succeeded")
	}
}

func TestQueryDecisions(t *testing.T) {
	ini, parts := bootLab(t, 12, 0, 2)
	for _, tc := range []struct {
		threshold int
		positives []int
		want      bool
	}{
		{2, []int{3, 7}, true},
		{2, []int{3}, false},
		{4, []int{0, 1, 2, 3, 4, 5}, true},
		{6, []int{0, 1, 2}, false},
		{1, nil, false},
		{12, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, true},
	} {
		configure(parts, tc.positives...)
		ini.Configure(tc.threshold)
		out, err := ini.Query()
		if err != nil {
			t.Fatal(err)
		}
		if out.Decision != tc.want {
			t.Fatalf("t=%d x=%d: decision %v, want %v", tc.threshold, len(tc.positives), out.Decision, tc.want)
		}
		if out.Queries <= 0 || out.Slots != 3*out.Queries {
			t.Fatalf("accounting wrong: %+v", out)
		}
		if len(out.Trace) != out.Queries {
			t.Fatalf("trace length %d != queries %d", len(out.Trace), out.Queries)
		}
	}
}

func TestRebootClearsState(t *testing.T) {
	ini, parts := bootLab(t, 4, 0, 3)
	configure(parts, 0, 1)
	ini.Configure(1)
	if out, err := ini.Query(); err != nil || !out.Decision {
		t.Fatalf("pre-reboot query: %+v, %v", out, err)
	}
	// Reboot the initiator: it must demand reconfiguration.
	ini.Reboot()
	if _, err := ini.Query(); err == nil {
		t.Fatal("query after initiator reboot succeeded")
	}
	// Reboot participants: predicate state resets to negative.
	for _, p := range parts {
		p.Reboot()
	}
	ini.Configure(1)
	out, err := ini.Query()
	if err != nil {
		t.Fatal(err)
	}
	if out.Decision {
		t.Fatal("rebooted participants still answered positive")
	}
}

func TestRepeatedQueriesIndependent(t *testing.T) {
	ini, parts := bootLab(t, 12, 0, 4)
	configure(parts, 1, 5, 9)
	ini.Configure(3)
	for i := 0; i < 20; i++ {
		out, err := ini.Query()
		if err != nil {
			t.Fatal(err)
		}
		if !out.Decision {
			t.Fatalf("query %d flipped to false on a perfect radio", i)
		}
	}
}

func TestLossyRadioCanFalseNegative(t *testing.T) {
	// With an absurdly lossy radio, single-HACK groups vanish and the
	// initiator under-counts; no false positives are possible.
	ini, parts := bootLab(t, 12, 0.9, 5)
	configure(parts, 2, 6)
	ini.Configure(2)
	falseNeg := 0
	for i := 0; i < 50; i++ {
		out, err := ini.Query()
		if err != nil {
			t.Fatal(err)
		}
		if !out.Decision {
			falseNeg++
		}
	}
	if falseNeg == 0 {
		t.Fatal("90% HACK loss never produced a false negative")
	}
}

func TestNoFalsePositivesEver(t *testing.T) {
	// Backcast concludes non-empty only on a decoded HACK, so an
	// all-negative network can never look positive, whatever the loss.
	ini, parts := bootLab(t, 12, 0.5, 6)
	configure(parts) // nobody positive
	ini.Configure(1)
	for i := 0; i < 50; i++ {
		out, err := ini.Query()
		if err != nil {
			t.Fatal(err)
		}
		if out.Decision {
			t.Fatal("false positive from an all-negative network")
		}
	}
}

func TestTraceRecordsEmptiness(t *testing.T) {
	ini, parts := bootLab(t, 8, 0, 7)
	configure(parts, 0)
	ini.Configure(1)
	out, err := ini.Query()
	if err != nil {
		t.Fatal(err)
	}
	sawNonEmpty := false
	for _, rec := range out.Trace {
		if len(rec.Bin) == 0 {
			t.Fatal("trace contains node-less bin (should never be polled)")
		}
		if !rec.Empty {
			sawNonEmpty = true
		}
	}
	if !sawNonEmpty {
		t.Fatal("decision true but no non-empty group in trace")
	}
}

func TestParticipantArmedFor(t *testing.T) {
	p := NewParticipant(3)
	p.Configure(true)
	if !p.armedFor([]int{1, 3}) {
		t.Fatal("positive member not armed")
	}
	if p.armedFor([]int{1, 2}) {
		t.Fatal("non-member armed")
	}
	p.Configure(false)
	if p.armedFor([]int{3}) {
		t.Fatal("negative mote armed")
	}
}

func TestBadRosterRejected(t *testing.T) {
	root := rng.New(8)
	med := radio.NewMedium(radio.Config{}, root.Split(1))
	// IDs 5 and 6 instead of 0 and 1: firmware must refuse.
	parts := []*Participant{NewParticipant(5), NewParticipant(6)}
	ini := NewInitiator(1<<16, med, parts, root.Split(2))
	ini.Configure(1)
	if _, err := ini.Query(); err == nil {
		t.Fatal("mismatched roster accepted")
	}
}

// TestBackcastPollAllocs pins the firmware's per-poll cost: the armed
// set, the medium's scratch, the trace and its ID arena are reused, so a
// poll of a 12-mote testbed allocates nothing.
func TestBackcastPollAllocs(t *testing.T) {
	ini, parts := bootLab(t, 12, 0.05, 9)
	configure(parts, 0, 3, 6, 9)
	q := &ini.q
	q.addr = 0x8000
	bin := []int{0, 1, 2, 3, 4, 5}
	allocs := testing.AllocsPerRun(100, func() {
		q.trace, q.ids = q.trace[:0], q.ids[:0]
		q.Query(bin)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per backcast poll, want 0", allocs)
	}
}

// copyingQuerier is the backcast querier as it traced before the ID
// arena: a fresh copy of every polled bin.
type copyingQuerier struct {
	q     *backcastQuerier
	trace []QueryRecord
}

func (c *copyingQuerier) Query(bin []int) query.Response {
	resp := c.q.Query(bin)
	c.trace = append(c.trace, QueryRecord{Bin: append([]int(nil), bin...), Empty: resp.Kind == query.Empty})
	return resp
}

func (c *copyingQuerier) Traits() query.Traits { return c.q.Traits() }

// TestTraceArenaMatchesCopies: run after run on a lossy testbed, the
// arena-backed trace an initiator reports equals the bin copies a twin
// initiator, driven through the same firmware state, records.
func TestTraceArenaMatchesCopies(t *testing.T) {
	ini, parts := bootLab(t, 24, 0.1, 4)
	twin, twinParts := bootLab(t, 24, 0.1, 4)
	r := rng.New(8)
	for run := 0; run < 30; run++ {
		pos := r.Sample(24, 2+run%9)
		configure(parts, pos...)
		configure(twinParts, pos...)
		ini.Configure(4)
		twin.Configure(4)
		out, err := ini.Query()
		if err != nil {
			t.Fatal(err)
		}
		q := &twin.q
		q.seq, q.addr, q.slots = 0, 0x8000, 0
		ref := &copyingQuerier{q: q}
		res, err := core.RunIn(&twin.arena, core.TwoTBins{}, ref, len(twin.participants), twin.threshold, twin.r)
		if err != nil {
			t.Fatal(err)
		}
		if out.Decision != res.Decision || len(out.Trace) != len(ref.trace) {
			t.Fatalf("run %d: decision %v in %d polls, twin %v in %d", run, out.Decision, len(out.Trace), res.Decision, len(ref.trace))
		}
		for i, rec := range out.Trace {
			want := ref.trace[i]
			if rec.Empty != want.Empty || !slices.Equal(rec.Bin, want.Bin) || cap(rec.Bin) != len(rec.Bin) {
				t.Fatalf("run %d poll %d: record %v (cap %d), want %v", run, i, rec, cap(rec.Bin), want)
			}
		}
	}
}

// TestWarmQueryAllocs pins a warm TCast run on the 12-mote testbed: the
// 2tBins session scratch, the backcast querier, its trace and the trace's
// ID arena are the initiator's, so a warm run allocates nothing.
func TestWarmQueryAllocs(t *testing.T) {
	ini, parts := bootLab(t, 12, 0, 9)
	configure(parts, 1, 4, 7, 10)
	ini.Configure(4)
	queries := 0
	run := func() {
		out, err := ini.Query()
		if err != nil {
			t.Fatal(err)
		}
		queries += out.Queries
	}
	run() // warm
	queries = 0
	const runs = 50
	allocs := testing.AllocsPerRun(runs, run)
	perRun := float64(queries) / (runs + 1) // AllocsPerRun adds a warm-up call
	if allocs != 0 {
		t.Fatalf("%v allocs per warm query of %.1f polls, want 0", allocs, perRun)
	}
}
