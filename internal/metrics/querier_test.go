package metrics

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// instrument puts q under a Tap with a metrics observer recording into m.
func instrument(q query.Querier, m *Registry) (*query.Tap, *Observer) {
	o := new(Observer)
	o.Reset(m)
	return query.NewTap(q, o), o
}

// kindValue finds the counter value for one kind label in a snapshot.
func kindValue(t *testing.T, s Snapshot, kind string) int64 {
	t.Helper()
	name := Name(MetricPolls, "kind", kind)
	for _, c := range s.Counters {
		if c.Name == name {
			return int64(c.Value)
		}
	}
	return 0
}

func TestInstrumentedQuerierPartitionsPolls(t *testing.T) {
	m := New()
	ch, _ := fastsim.RandomPositives(64, 10, fastsim.TwoPlusConfig(), rng.New(3))
	iq, _ := instrument(ch, m)
	members := make([]int, 64)
	for i := range members {
		members[i] = i
	}
	polls := 0
	r := rng.New(9)
	for i := 0; i < 200; i++ {
		lo := int(r.Uint64() % 60)
		hi := lo + 1 + int(r.Uint64()%4)
		iq.Query(members[lo:hi])
		polls++
	}
	FinishSession(iq)

	s := m.Snapshot()
	var perKind int64
	for _, k := range []string{"empty", "active", "decoded", "collision"} {
		perKind += kindValue(t, s, k)
	}
	if perKind != int64(polls) {
		t.Fatalf("per-kind counters sum to %d, want %d polls", perKind, polls)
	}
	for _, h := range s.Histograms {
		switch h.Name {
		case MetricSessionPolls:
			if h.Count != 1 || h.Sum != float64(polls) {
				t.Fatalf("session polls histogram = count %d sum %v", h.Count, h.Sum)
			}
		case MetricBinSize:
			if h.Count != uint64(polls) {
				t.Fatalf("bin size count = %d, want %d", h.Count, polls)
			}
		}
	}
}

// TestInstrumentedQuerierTransparent proves the middleware does not
// perturb the query stream: the same algorithm run against the same seed
// sees identical responses with and without instrumentation.
func TestInstrumentedQuerierTransparent(t *testing.T) {
	run := func(on bool) []query.Response {
		ch, _ := fastsim.RandomPositives(32, 7, fastsim.TwoPlusConfig(), rng.New(11))
		var q query.Querier = ch
		if on {
			q, _ = instrument(ch, New())
		}
		members := make([]int, 32)
		for i := range members {
			members[i] = i
		}
		var out []query.Response
		for i := 0; i+4 <= 32; i += 4 {
			out = append(out, q.Query(members[i:i+4]))
		}
		return out
	}
	plain, inst := run(false), run(true)
	for i := range plain {
		if plain[i] != inst[i] {
			t.Fatalf("response %d differs: %+v vs %+v", i, plain[i], inst[i])
		}
	}
}

func TestWrapNilRegistry(t *testing.T) {
	ch, _ := fastsim.RandomPositives(8, 2, fastsim.DefaultConfig(), rng.New(1))
	if Wrap(ch, nil) != query.Querier(ch) {
		t.Fatal("nil registry should return the querier unchanged")
	}
	m := New()
	w := Wrap(ch, m)
	if _, ok := w.(*query.Tap); !ok {
		t.Fatalf("Wrap returned %T", w)
	}
	// FinishSession must be a no-op on unwrapped queriers and record on
	// wrapped ones.
	FinishSession(ch)
	w.Query([]int{0, 1})
	FinishSession(w)
	if got := m.Counter(MetricSessions).Value(); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
}

// TestOnPollReplayMatchesQuery: polls replayed straight into an observer's
// OnPoll — as the mote lab replays its initiator's record — land in the
// same instruments as the same polls answered through a Tap.
func TestOnPollReplayMatchesQuery(t *testing.T) {
	live, replayed := New(), New()
	ch, _ := fastsim.RandomPositives(32, 6, fastsim.TwoPlusConfig(), rng.New(4))
	tap, o := instrument(ch, live)
	var ro Observer
	ro.Reset(replayed)
	for i := 0; i+3 <= 32; i += 3 {
		bin := []int{i, i + 1, i + 2}
		ro.OnPoll(i/3, bin, tap.Query(bin))
	}
	o.Finish(tap.Polls(), tap.Nodes())
	ro.Finish(tap.Polls(), tap.Nodes())
	var a, b bytes.Buffer
	if err := WriteText(&a, live.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&b, replayed.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("replayed instruments differ:\nlive:\n%s\nreplayed:\n%s", a.String(), b.String())
	}
	if got := replayed.Counter(MetricNodesPolled).Value(); got != 30 {
		t.Fatalf("nodes polled = %d, want 30", got)
	}
}

// TestConcurrentSessions runs many sessions against one registry in
// parallel — the shape RunTrials produces — and checks the shared counters
// are exact (run under -race in CI).
func TestConcurrentSessions(t *testing.T) {
	const sessions = 32
	const pollsPer = 100
	m := New()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ch, _ := fastsim.RandomPositives(64, 12, fastsim.DefaultConfig(), rng.New(uint64(s)))
			iq, _ := instrument(ch, m)
			bin := []int{1, 2, 3}
			for i := 0; i < pollsPer; i++ {
				iq.Query(bin)
			}
			FinishSession(iq)
		}(s)
	}
	wg.Wait()
	s := m.Snapshot()
	var perKind int64
	for _, k := range []string{"empty", "active", "decoded", "collision"} {
		perKind += kindValue(t, s, k)
	}
	if perKind != sessions*pollsPer {
		t.Fatalf("per-kind counters sum to %d, want %d", perKind, sessions*pollsPer)
	}
	if got := m.Counter(MetricNodesPolled).Value(); got != sessions*pollsPer*3 {
		t.Fatalf("nodes polled = %d, want %d", got, sessions*pollsPer*3)
	}
	if got := m.Counter(MetricSessions).Value(); got != sessions {
		t.Fatalf("sessions = %d, want %d", got, sessions)
	}
}

// TestInstrumentedQuerierReset: a Tap and observer re-targeted with Reset
// record a fresh session into whichever registry they are given, with no
// tallies carried over, the same as freshly built ones.
func TestInstrumentedQuerierReset(t *testing.T) {
	a, b := New(), New()
	ch, _ := fastsim.RandomPositives(16, 4, fastsim.DefaultConfig(), rng.New(1))
	iq, o := instrument(ch, a)
	iq.Query([]int{0, 1, 2})
	iq.Query([]int{3})
	iq.Reset(ch, o) // unfinished tallies are dropped
	iq.Query([]int{4, 5})
	FinishSession(iq)
	iq.Reset(ch, o)
	o.Reset(b)
	iq.Query([]int{6})
	FinishSession(iq)
	iq.Reset(ch, o)
	o.Reset(a)
	iq.Query([]int{7})
	FinishSession(iq)

	for _, c := range []struct {
		m                   *Registry
		polls, nodes, sessN int64
	}{{a, 4, 7, 2}, {b, 1, 1, 1}} {
		var polls int64
		for _, k := range []string{"empty", "active", "decoded", "collision"} {
			polls += kindValue(t, c.m.Snapshot(), k)
		}
		nodes := c.m.Counter(MetricNodesPolled).Value()
		sessions := c.m.Counter(MetricSessions).Value()
		if polls != c.polls || nodes != c.nodes || sessions != c.sessN {
			t.Errorf("registry got polls=%d nodes=%d sessions=%d, want %d/%d/%d",
				polls, nodes, sessions, c.polls, c.nodes, c.sessN)
		}
	}
	var sessionPolls []float64
	for _, h := range a.Snapshot().Histograms {
		if h.Name == MetricSessionPolls {
			sessionPolls = append(sessionPolls, h.Sum)
		}
	}
	if len(sessionPolls) != 1 || sessionPolls[0] != 2 {
		t.Errorf("session polls sum = %v, want [2] (the dropped tallies must not count)", sessionPolls)
	}
}

// TestBinBucketMatchesObserve: the observer's bucket index is the one
// Histogram.Observe picks in BinSizeBuckets, and its array has one slot
// per bucket.
func TestBinBucketMatchesObserve(t *testing.T) {
	if binBuckets != len(BinSizeBuckets)+1 {
		t.Fatalf("binBuckets = %d, BinSizeBuckets has %d buckets", binBuckets, len(BinSizeBuckets)+1)
	}
	for n := 0; n <= 4096; n++ {
		if got, want := binBucket(n), sort.SearchFloat64s(BinSizeBuckets, float64(n)); got != want {
			t.Fatalf("binBucket(%d) = %d, Observe picks %d", n, got, want)
		}
	}
}

// perPollObserver is the metrics observer that updated the registry's
// atomics on every poll, kept as the reference the per-session flush
// must match.
type perPollObserver struct {
	polls                               [query.NumKinds]*Counter
	nodes, sessions                     *Counter
	binSize, sessionPolls, sessionNodes *Histogram
}

func newPerPollObserver(m *Registry) *perPollObserver {
	o := &perPollObserver{
		nodes:        m.Counter(MetricNodesPolled),
		sessions:     m.Counter(MetricSessions),
		binSize:      m.Histogram(MetricBinSize, BinSizeBuckets),
		sessionPolls: m.Histogram(MetricSessionPolls, SessionBuckets),
		sessionNodes: m.Histogram(MetricSessionNodes, SessionBuckets),
	}
	for k := query.Kind(0); int(k) < query.NumKinds; k++ {
		o.polls[k] = m.Counter(MetricPolls, "kind", k.String())
	}
	return o
}

func (o *perPollObserver) OnPoll(_ int, bin []int, resp query.Response) {
	o.polls[resp.Kind].Inc()
	o.nodes.Add(int64(len(bin)))
	o.binSize.Observe(float64(len(bin)))
}

func (o *perPollObserver) OnRound(int) {}

func (o *perPollObserver) finish(polls, nodes int) {
	o.sessions.Inc()
	o.sessionPolls.Observe(float64(polls))
	o.sessionNodes.Observe(float64(nodes))
}

// TestSessionFlushMatchesPerPoll: 2tBins sessions run on GOMAXPROCS
// workers (CI runs it at -cpu 1,2,4), each through a Tap with one pooled
// Observer, leave the same registry text dump as the per-poll reference.
// Every fifth session stops without deciding: it is flushed, not
// finished, and its polls still count.
func TestSessionFlushMatchesPerPoll(t *testing.T) {
	const sessions, n, tt = 120, 96, 8
	flushed, ref := New(), New()
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				o   Observer
				tap query.Tap
				ch  fastsim.Channel
			)
			po := newPerPollObserver(ref)
			for i := w; i < sessions; i += workers {
				r := rng.New(uint64(i))
				ch.ResetRandom(n, i%(2*tt), fastsim.TwoPlusConfig(), r.Split(1))
				o.Reset(flushed)
				tap.Reset(&ch, &o, po)
				if _, err := (core.TwoTBins{}).Run(&tap, n, tt, r.Split(2)); err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					o.Flush()
					continue
				}
				o.Finish(tap.Polls(), tap.Nodes())
				po.finish(tap.Polls(), tap.Nodes())
			}
		}(w)
	}
	wg.Wait()
	var got, want bytes.Buffer
	if err := WriteText(&got, flushed.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&want, ref.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("flushed registry differs from the per-poll reference:\n%s\nwant:\n%s", got.String(), want.String())
	}
}
