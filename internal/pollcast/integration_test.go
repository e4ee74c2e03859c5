package pollcast

import (
	"math"
	"testing"
	"time"

	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
	"tcast/internal/timing"
)

// These tests validate the abl-packet experiment from DESIGN.md: the same
// algorithm code must behave identically on the abstract fast channel and
// on the packet-level radio, because a Session exposes exactly the
// information an RCD initiator gets.

func runPacket(t *testing.T, alg core.Algorithm, n, th, x int, prim Primitive, model query.CollisionModel, cfg radio.Config, seed uint64) core.Result {
	t.Helper()
	r := rng.New(seed)
	parts := make([]*Participant, n)
	for _, id := range r.Split(1).Sample(n, x) {
		parts[id] = &Participant{ID: id, Positive: true}
	}
	for i := range parts {
		if parts[i] == nil {
			parts[i] = &Participant{ID: i}
		}
	}
	med := radio.NewMedium(cfg, r.Split(2))
	s, err := NewSession(med, initiatorID, parts, prim, model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(s, n, th, r.Split(3))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAlgorithmsCorrectOnPacketBackcast(t *testing.T) {
	algs := []core.Algorithm{
		core.TwoTBins{}, core.ExpIncrease{}, core.ABNS{P0: 1}, core.ABNS{P0: 2}, core.ProbABNS{},
	}
	for _, alg := range algs {
		for _, x := range []int{0, 3, 8, 9, 20, 32} {
			for seed := uint64(0); seed < 3; seed++ {
				res := runPacket(t, alg, 32, 8, x, Backcast, query.OnePlus, radio.Config{}, seed)
				if res.Decision != (x >= 8) {
					t.Fatalf("%s on backcast: wrong decision for x=%d", alg.Name(), x)
				}
			}
		}
	}
}

func TestAlgorithmsCorrectOnPacketPollcastTwoPlus(t *testing.T) {
	cfg := radio.Config{}
	for _, x := range []int{0, 7, 8, 16, 32} {
		for seed := uint64(0); seed < 3; seed++ {
			res := runPacket(t, core.TwoTBins{}, 32, 8, x, Pollcast, query.TwoPlus, cfg, seed)
			if res.Decision != (x >= 8) {
				t.Fatalf("2tBins on 2+ pollcast: wrong decision for x=%d", x)
			}
		}
	}
}

// TestPacketMatchesFastsimCosts compares mean query counts between the two
// substrates. On an ideal radio the per-query information is identical, so
// the cost distributions must agree (up to sampling noise).
func TestPacketMatchesFastsimCosts(t *testing.T) {
	const n, th, runs = 64, 8, 300
	for _, x := range []int{2, 8, 30} {
		var packetTotal, fastTotal int
		for i := 0; i < runs; i++ {
			res := runPacket(t, core.TwoTBins{}, n, th, x, Backcast, query.OnePlus,
				radio.Config{}, uint64(x*10000+i))
			packetTotal += res.Queries

			r := rng.New(uint64(900000 + x*10000 + i))
			ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), r.Split(1))
			fres, err := (core.TwoTBins{}).Run(ch, n, th, r.Split(2))
			if err != nil {
				t.Fatal(err)
			}
			fastTotal += fres.Queries
		}
		packetMean := float64(packetTotal) / runs
		fastMean := float64(fastTotal) / runs
		if diff := math.Abs(packetMean - fastMean); diff > 0.15*fastMean+0.5 {
			t.Errorf("x=%d: packet mean %v vs fastsim mean %v", x, packetMean, fastMean)
		}
	}
}

// TestElapsedMatchesAnalyticModel: the medium's directly measured air time
// for a backcast session must agree with the timing package's analytic
// per-query conversion, given the same frame sizing.
func TestElapsedMatchesAnalyticModel(t *testing.T) {
	const n, th, x = 64, 8, 20
	r := rng.New(77)
	parts := makeParts(n)
	for _, id := range r.Split(1).Sample(n, x) {
		parts[id].Positive = true
	}
	med := radio.NewMedium(radio.Config{}, r.Split(2))
	s, err := NewSession(med, initiatorID, parts, Backcast, query.OnePlus)
	if err != nil {
		t.Fatal(err)
	}
	model := &airtimeModel{Querier: s}
	res, err := (core.TwoTBins{}).Run(model, n, th, r.Split(3))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Elapsed(), model.want; got != want {
		t.Fatalf("measured %v, analytic %v (%d queries)", got, want, res.Queries)
	}
}

// airtimeModel sums the analytic air time of every poll it forwards: per
// query, bind (len(bin)+2 payload bytes) + poll (3 bytes) + HACK or idle
// HACK slot, each with a turnaround (busy) or a backoff period (idle HACK
// slot on empty bins).
type airtimeModel struct {
	query.Querier
	want time.Duration
}

func (m *airtimeModel) Query(bin []int) query.Response {
	resp := m.Querier.Query(bin)
	m.want += timing.FrameAirtime(len(bin)+2) + timing.Turnaround // bind
	m.want += timing.FrameAirtime(3) + timing.Turnaround          // poll
	if resp.Kind == query.Empty {
		m.want += timing.BackoffSlot // silent HACK slot
	} else {
		m.want += timing.AckAirtime() + timing.Turnaround
	}
	return resp
}

func TestPacketSlotAccounting(t *testing.T) {
	r := rng.New(42)
	parts := makeParts(16, 3, 7)
	med := radio.NewMedium(radio.Config{}, r.Split(1))
	s, err := NewSession(med, initiatorID, parts, Pollcast, query.OnePlus)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (core.TwoTBins{}).Run(s, 16, 4, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots() != 2*res.Queries {
		t.Fatalf("slots = %d, want 2×%d queries", s.Slots(), res.Queries)
	}
}
