package faults

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// The fault kernel's equivalence oracle: the per-node Bernoulli loops the
// Injector and Medium are specified by, kept verbatim as test references.
// The Threshold/Stream stepper must reproduce them bit for bit — state,
// event log, counts, annotations and the number of draws consumed —
// because every faulted golden digest depends on the exact draw order.

// refInjector is the reference Injector: one Bernoulli call per chain
// transition, per node, per poll.
type refInjector struct {
	q      query.Querier
	cfg    Config
	r      *rng.Source
	n      int
	bad    []bool
	down   []bool
	poll   int
	events []PollFault
	counts Counts
}

func newRefInjector(q query.Querier, cfg Config, n int, r *rng.Source) *refInjector {
	return &refInjector{q: q, cfg: cfg.normalized(), r: r, n: n, bad: make([]bool, n), down: make([]bool, n)}
}

func (j *refInjector) Query(bin []int) query.Response {
	pf := PollFault{Poll: j.poll}
	j.poll++
	j.counts.Polls++
	effective := bin
	if j.cfg.Active() {
		j.step(&pf)
		effective = j.filter(bin, &pf)
	}
	resp := j.q.Query(effective)
	if j.cfg.SkewProb > 0 && j.r.Bernoulli(j.cfg.SkewProb) {
		pf.Skewed = true
		j.counts.Skewed++
		resp = query.Response{Kind: query.Empty}
	}
	if j.cfg.DecodeCorruptProb > 0 && resp.Kind == query.Decoded &&
		j.r.Bernoulli(j.cfg.DecodeCorruptProb) {
		pf.CorruptDecode = true
		pf.ForgedID = j.r.Intn(j.n)
		j.counts.Corrupted++
		resp.DecodedID = pf.ForgedID
	}
	if pf.Skewed || pf.CorruptDecode || len(pf.Lost) > 0 || len(pf.Silenced) > 0 ||
		len(pf.Crashed) > 0 || len(pf.Recovered) > 0 {
		j.events = append(j.events, pf)
	}
	return resp
}

func (j *refInjector) step(pf *PollFault) {
	for id := 0; id < j.n; id++ {
		if j.down[id] {
			if j.r.Bernoulli(j.cfg.Churn.RecoverProb) {
				j.down[id] = false
				j.counts.Recovers++
				pf.Recovered = append(pf.Recovered, id)
			}
		} else if j.r.Bernoulli(j.cfg.Churn.CrashProb) {
			j.down[id] = true
			j.counts.Crashes++
			pf.Crashed = append(pf.Crashed, id)
		}
		if j.bad[id] {
			if j.r.Bernoulli(j.cfg.Burst.PBadGood) {
				j.bad[id] = false
			}
		} else if j.r.Bernoulli(j.cfg.Burst.PGoodBad) {
			j.bad[id] = true
		}
	}
}

func (j *refInjector) filter(bin []int, pf *PollFault) []int {
	var eff []int
	for _, id := range bin {
		if id >= 0 && id < j.n {
			switch {
			case j.down[id]:
				j.counts.Silenced++
				pf.Silenced = append(pf.Silenced, id)
				continue
			case j.bad[id] && j.r.Bernoulli(j.cfg.Burst.MissBad),
				!j.bad[id] && j.r.Bernoulli(j.cfg.Burst.MissGood):
				j.counts.Lost++
				pf.Lost = append(pf.Lost, id)
				continue
			}
		}
		eff = append(eff, id)
	}
	return eff
}

func (j *refInjector) describe(poll int) string {
	i := sort.Search(len(j.events), func(i int) bool { return j.events[i].Poll >= poll })
	if i < len(j.events) && j.events[i].Poll == poll {
		return fmt.Sprintf("poll %d: %s", poll, j.events[i])
	}
	return "no injected fault"
}

func (j *refInjector) traceAttrs() []trace.Attr {
	if !j.cfg.Active() {
		return nil
	}
	return []trace.Attr{
		trace.IntAttr("fault_polls", j.counts.Polls),
		trace.IntAttr("fault_skewed", j.counts.Skewed),
		trace.IntAttr("fault_lost", j.counts.Lost),
		trace.IntAttr("fault_silenced", j.counts.Silenced),
		trace.IntAttr("fault_crashes", j.counts.Crashes),
		trace.IntAttr("fault_recovers", j.counts.Recovers),
		trace.IntAttr("fault_corrupted", j.counts.Corrupted),
	}
}

// refMedium is the reference packet-level fault layer: the same per-node
// Bernoulli loop, once per slot.
type refMedium struct {
	inner  radio.Channel
	cfg    Config
	r      *rng.Source
	n      int
	bad    []bool
	down   []bool
	skewed bool
	counts Counts
}

func newRefMedium(inner radio.Channel, cfg Config, n int, r *rng.Source) *refMedium {
	return &refMedium{inner: inner, cfg: cfg.normalized(), r: r, n: n, bad: make([]bool, n), down: make([]bool, n)}
}

func (m *refMedium) BeginSlot() {
	m.inner.BeginSlot()
	if !m.cfg.Active() {
		return
	}
	for id := 0; id < m.n; id++ {
		if m.down[id] {
			if m.r.Bernoulli(m.cfg.Churn.RecoverProb) {
				m.down[id] = false
				m.counts.Recovers++
			}
		} else if m.r.Bernoulli(m.cfg.Churn.CrashProb) {
			m.down[id] = true
			m.counts.Crashes++
		}
		if m.bad[id] {
			if m.r.Bernoulli(m.cfg.Burst.PBadGood) {
				m.bad[id] = false
			}
		} else if m.r.Bernoulli(m.cfg.Burst.PGoodBad) {
			m.bad[id] = true
		}
	}
	m.skewed = m.cfg.SkewProb > 0 && m.r.Bernoulli(m.cfg.SkewProb)
}

func (m *refMedium) Transmit(f radio.Frame) {
	if f.Src >= 0 && f.Src < m.n {
		if m.down[f.Src] {
			m.counts.Silenced++
			return
		}
		if f.Lossy() {
			miss := m.cfg.Burst.MissGood
			if m.bad[f.Src] {
				miss = m.cfg.Burst.MissBad
			}
			if miss > 0 && m.r.Bernoulli(miss) {
				m.counts.Lost++
				return
			}
		}
	}
	m.inner.Transmit(f)
}

func (m *refMedium) Observe(receiver int) radio.Observation {
	if receiver >= 0 && receiver < m.n && m.down[receiver] {
		return radio.Observation{}
	}
	obs := m.inner.Observe(receiver)
	if m.skewed && (receiver < 0 || receiver >= m.n) && obs.Frame != nil {
		m.counts.Skewed++
		obs.Frame = nil
		obs.Superposed = 0
	}
	return obs
}

func (m *refMedium) traceAttrs() []trace.Attr {
	attrs := m.inner.TraceAttrs()
	if !m.cfg.Active() {
		return attrs
	}
	return append(attrs,
		trace.IntAttr("fault_skewed", m.counts.Skewed),
		trace.IntAttr("fault_lost", m.counts.Lost),
		trace.IntAttr("fault_silenced", m.counts.Silenced),
		trace.IntAttr("fault_crashes", m.counts.Crashes),
		trace.IntAttr("fault_recovers", m.counts.Recovers),
	)
}

// edgeProbs are the probabilities at the Threshold contract's edges: no
// draw at 0 and 1, the smallest and largest drawing values, and one half.
var edgeProbs = []float64{0, 0x1p-53, 0.5, math.Nextafter(1, 0), 1}

// oracleSizes are the population sizes the oracle runs: one node, both
// sides of a 64-bit word, tcastbench's 128, and a field past a thousand.
var oracleSizes = []int{1, 63, 64, 128, 1000}

// randProb draws a probability: an edge value half the time, otherwise
// a small rate (the regime real fault specs use) or a uniform one.
func randProb(r *rng.Source) float64 {
	switch r.Intn(4) {
	case 0, 1:
		return edgeProbs[r.Intn(len(edgeProbs))]
	case 2:
		return r.Float64() * 0.05
	default:
		return r.Float64()
	}
}

// oracleFamilies build churn-only, burst-only and mixed configs.
var oracleFamilies = []struct {
	name string
	make func(r *rng.Source) Config
}{
	{"churn-only", func(r *rng.Source) Config {
		return Config{Churn: ChurnConfig{CrashProb: randProb(r), RecoverProb: randProb(r)}}
	}},
	{"burst-only", func(r *rng.Source) Config {
		return Config{Burst: BurstConfig{
			PGoodBad: randProb(r), PBadGood: randProb(r),
			MissGood: randProb(r) * float64(r.Intn(2)), MissBad: randProb(r),
		}}
	}},
	{"mixed", func(r *rng.Source) Config {
		return Config{
			Burst: BurstConfig{
				PGoodBad: randProb(r), PBadGood: randProb(r),
				MissGood: randProb(r) * float64(r.Intn(2)), MissBad: randProb(r),
			},
			Churn:             ChurnConfig{CrashProb: randProb(r), RecoverProb: randProb(r)},
			SkewProb:          randProb(r) * float64(r.Intn(2)),
			DecodeCorruptProb: randProb(r) * float64(r.Intn(2)),
		}
	}},
}

// echoQ decodes the first member of a non-empty bin (so corruption has a
// frame to forge) and reads an empty bin as silence. Its answer depends
// only on the bin, so the oracle and the kernel see the same responses
// exactly when they filter identically.
type echoQ struct{ bins [][]int }

func (q *echoQ) Query(bin []int) query.Response {
	q.bins = append(q.bins, append([]int(nil), bin...))
	if len(bin) == 0 {
		return query.Response{Kind: query.Empty}
	}
	return query.Response{Kind: query.Decoded, DecodedID: bin[0]}
}

func (q *echoQ) Traits() query.Traits { return query.Traits{Model: query.TwoPlus} }

// randomBin draws a poll's bin: a random subset of the population plus,
// now and then, an out-of-range ID the injector must pass through.
func randomBin(r *rng.Source, n int) []int {
	bin := r.Sample(n, r.Intn(n+1))
	if r.Intn(8) == 0 {
		bin = append(bin, n+r.Intn(3), -1)
	}
	return bin
}

// checkSameDraws compares the next four outputs of two streams, which
// pins that both sides consumed the same number of draws.
func checkSameDraws(t *testing.T, label string, got, want *rng.Source) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: stream output %d after the session = %#x, oracle %#x (draw counts differ)", label, i, g, w)
		}
	}
}

// TestInjectorMatchesBernoulliOracle runs random sessions through one
// pooled Injector (Reset between sessions) and through a fresh reference
// injector, comparing every observable.
func TestInjectorMatchesBernoulliOracle(t *testing.T) {
	const polls = 24
	cfgR := rng.New(2011)
	pooled := new(Injector)
	for _, fam := range oracleFamilies {
		for _, n := range oracleSizes {
			for c := 0; c < 12; c++ {
				cfg := fam.make(cfgR)
				label := fmt.Sprintf("%s n=%d cfg=%+v", fam.name, n, cfg)
				seed := cfgR.Uint64()
				gotQ, wantQ := &echoQ{}, &echoQ{}
				gotR, wantR := rng.New(seed), rng.New(seed)
				pooled.Reset(gotQ, cfg, n, gotR)
				ref := newRefInjector(wantQ, cfg, n, wantR)
				binR := rng.New(seed ^ 0x5eed)
				for p := 0; p < polls; p++ {
					bin := randomBin(binR, n)
					orig := append([]int(nil), bin...)
					got, want := pooled.Query(bin), ref.Query(bin)
					if got != want {
						t.Fatalf("%s poll %d: response %+v, oracle %+v", label, p, got, want)
					}
					if !reflect.DeepEqual(bin, orig) {
						t.Fatalf("%s poll %d: caller's bin mutated", label, p)
					}
					if g, w := gotQ.bins[p], wantQ.bins[p]; len(g)+len(w) > 0 && !reflect.DeepEqual(g, w) {
						t.Fatalf("%s poll %d: substrate polled with %v, oracle %v", label, p, g, w)
					}
					if !reflect.DeepEqual(pooled.down, ref.down) || !reflect.DeepEqual(pooled.bad, ref.bad) {
						t.Fatalf("%s poll %d: chain state differs from the oracle", label, p)
					}
				}
				if !reflect.DeepEqual(pooled.Events(), ref.events) {
					t.Fatalf("%s: Events = %+v, oracle %+v", label, pooled.Events(), ref.events)
				}
				if pooled.counts != ref.counts {
					t.Fatalf("%s: Counts = %+v, oracle %+v", label, pooled.counts, ref.counts)
				}
				for p := -1; p <= polls; p++ {
					if g, w := pooled.Describe(p), ref.describe(p); g != w {
						t.Fatalf("%s: Describe(%d) = %q, oracle %q", label, p, g, w)
					}
				}
				if !reflect.DeepEqual(pooled.TraceAttrs(), ref.traceAttrs()) {
					t.Fatalf("%s: TraceAttrs = %v, oracle %v", label, pooled.TraceAttrs(), ref.traceAttrs())
				}
				checkSameDraws(t, label, gotR, wantR)
			}
		}
	}
}

// TestMediumMatchesBernoulliOracle drives the packet-level layer slot by
// slot — every node transmits a vote, the initiator and a participant
// observe — against the reference medium.
func TestMediumMatchesBernoulliOracle(t *testing.T) {
	const slots = 24
	cfgR := rng.New(2012)
	for _, fam := range oracleFamilies {
		for _, n := range oracleSizes {
			for c := 0; c < 12; c++ {
				cfg := fam.make(cfgR)
				label := fmt.Sprintf("%s n=%d cfg=%+v", fam.name, n, cfg)
				seed := cfgR.Uint64()
				gotR, wantR := rng.New(seed), rng.New(seed)
				got := NewMedium(radio.NewMedium(radio.Config{}, rng.New(seed+1)), cfg, n, gotR)
				want := newRefMedium(radio.NewMedium(radio.Config{}, rng.New(seed+1)), cfg, n, wantR)
				for s := 0; s < slots; s++ {
					got.BeginSlot()
					want.BeginSlot()
					if !reflect.DeepEqual(got.down, want.down) || !reflect.DeepEqual(got.bad, want.bad) || got.skewed != want.skewed {
						t.Fatalf("%s slot %d: chain state differs from the oracle", label, s)
					}
					kind := radio.FrameVote
					if s%3 == 2 {
						kind = radio.FrameData
					}
					for src := 0; src < n; src += 1 + s%4 {
						f := radio.Frame{Kind: kind, Src: src, Dst: radio.Broadcast, Bytes: 2}
						got.Transmit(f)
						want.Transmit(f)
					}
					for _, rx := range []int{-1, n, 0} {
						if g, w := got.Observe(rx), want.Observe(rx); !reflect.DeepEqual(g, w) {
							t.Fatalf("%s slot %d: Observe(%d) = %+v, oracle %+v", label, s, rx, g, w)
						}
					}
					got.EndSlot()
					want.inner.EndSlot()
				}
				if got.counts != want.counts {
					t.Fatalf("%s: Counts = %+v, oracle %+v", label, got.counts, want.counts)
				}
				if !reflect.DeepEqual(got.TraceAttrs(), want.traceAttrs()) {
					t.Fatalf("%s: TraceAttrs = %v, oracle %v", label, got.TraceAttrs(), want.traceAttrs())
				}
				checkSameDraws(t, label, gotR, wantR)
			}
		}
	}
}

// TestEventListsDoNotAlias: appending to one event's ID list must not
// overwrite the next event's list in the shared arena.
func TestEventListsDoNotAlias(t *testing.T) {
	j := New(&echoQ{}, Config{Churn: ChurnConfig{CrashProb: 1}}, 4, rng.New(1))
	j.Query([]int{0, 1})
	j.Query([]int{2, 3})
	ev := j.Events()
	if len(ev) != 2 {
		t.Fatalf("Events = %+v, want two", ev)
	}
	want := append([]int(nil), ev[1].Silenced...)
	_ = append(ev[0].Silenced, 99)
	_ = append(ev[0].Crashed, 99)
	if !reflect.DeepEqual(ev[1].Silenced, want) {
		t.Fatalf("appending to event 0 clobbered event 1: %v, want %v", ev[1].Silenced, want)
	}
}

func BenchmarkInjectorPoll(b *testing.B) {
	const n = 128
	cfg, err := ParseSpec("burst=8,frac=0.2,churn=0.002,recover=0.1,skew=0.01")
	if err != nil {
		b.Fatal(err)
	}
	bin := make([]int, 16)
	for i := range bin {
		bin[i] = i * 8
	}
	q := &countQ{}
	r := rng.New(1)
	j := New(q, cfg, n, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			j.Reset(q, cfg, n, r)
		}
		j.Query(bin)
	}
}

// countQ answers every poll Active and keeps nothing.
type countQ struct{}

func (*countQ) Query([]int) query.Response { return query.Response{Kind: query.Active} }
func (*countQ) Traits() query.Traits       { return query.Traits{} }
