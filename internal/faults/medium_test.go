package faults

import (
	"testing"

	"tcast/internal/pollcast"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
)

// runBackcast executes one backcast session over ch and returns the poll
// responses for a fixed sequence of bins, plus the slot count.
func runBackcast(t *testing.T, ch radio.Channel, n int, positive map[int]bool, bins [][]int) ([]query.Response, int) {
	t.Helper()
	parts := make([]*pollcast.Participant, n)
	for i := range parts {
		parts[i] = &pollcast.Participant{ID: i, Positive: positive[i]}
	}
	sess, err := pollcast.NewSession(ch, n, parts, pollcast.Backcast, query.OnePlus)
	if err != nil {
		t.Fatal(err)
	}
	var out []query.Response
	for _, bin := range bins {
		out = append(out, sess.Query(bin))
	}
	return out, sess.Slots()
}

func TestInactiveMediumTransparent(t *testing.T) {
	const n = 8
	positive := map[int]bool{1: true, 5: true}
	bins := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 2, 4, 6}}

	bare := radio.NewMedium(radio.Config{}, rng.New(7))
	bareResps, bareSlots := runBackcast(t, bare, n, positive, bins)

	faultR := rng.New(99)
	wrapped := NewMedium(radio.NewMedium(radio.Config{}, rng.New(7)), Config{}, n, faultR)
	wrapResps, wrapSlots := runBackcast(t, wrapped, n, positive, bins)

	for i := range bareResps {
		if bareResps[i].Kind != wrapResps[i].Kind {
			t.Fatalf("poll %d: wrapped Kind = %v, bare %v", i, wrapResps[i].Kind, bareResps[i].Kind)
		}
	}
	if bareSlots != wrapSlots {
		t.Fatalf("slots = %d wrapped vs %d bare", wrapSlots, bareSlots)
	}
	if got, want := faultR.Uint64(), rng.New(99).Uint64(); got != want {
		t.Fatal("inactive medium consumed randomness")
	}
	if !wrapped.Lossless() {
		t.Fatal("inactive wrapper over a lossless medium must report lossless")
	}
	if got, want := len(wrapped.TraceAttrs()), len(bare.TraceAttrs()); got != want {
		t.Fatalf("inactive wrapper added trace attrs: %d vs %d", got, want)
	}
}

func TestMediumChurnSilencesTransmitter(t *testing.T) {
	const n = 4
	positive := map[int]bool{0: true, 1: true, 2: true, 3: true}
	// Everybody crashes at the first BeginSlot: no votes reach the
	// channel, every poll reads Empty even though all nodes are positive.
	cfg := Config{Churn: ChurnConfig{CrashProb: 1}}
	med := NewMedium(radio.NewMedium(radio.Config{}, rng.New(3)), cfg, n, rng.New(4))
	resps, _ := runBackcast(t, med, n, positive, [][]int{{0, 1, 2, 3}})
	if resps[0].Kind != query.Empty {
		t.Fatalf("Kind = %v, want Empty (all transmitters crashed)", resps[0].Kind)
	}
	if med.Lossless() {
		t.Fatal("active wrapper must not report lossless")
	}
	// Silenced stays zero here: a crashed node's radio is off, so it never
	// hears the poll and never even attempts the vote it would have lost.
	if c := med.counts; c.Crashes != n {
		t.Fatalf("Counts = %+v, want %d crashes", c, n)
	}
}

func TestMediumBurstDropsLossyFrames(t *testing.T) {
	const n = 4
	positive := map[int]bool{0: true, 2: true}
	// All links bad from slot one, MissBad defaulted to 1: every vote and
	// HACK is dropped at the transmitter, so polls read Empty.
	cfg := Config{Burst: BurstConfig{PGoodBad: 1}}
	med := NewMedium(radio.NewMedium(radio.Config{}, rng.New(3)), cfg, n, rng.New(4))
	resps, _ := runBackcast(t, med, n, positive, [][]int{{0, 1, 2, 3}})
	if resps[0].Kind != query.Empty {
		t.Fatalf("Kind = %v, want Empty (all replies burst-lost)", resps[0].Kind)
	}
	if c := med.counts; c.Lost == 0 {
		t.Fatalf("Counts = %+v, want lost frames", c)
	}
}

func TestMediumSkewBlindsOnlyInitiator(t *testing.T) {
	const n = 4
	positive := map[int]bool{0: true, 1: true, 2: true, 3: true}
	// Every slot skewed: the initiator (receiver outside [0, n)) misses
	// every decoded frame. Backcast replies are votes the initiator must
	// decode, so every poll reads Empty; pollcast's CCA energy sensing
	// would survive, which is exactly the asymmetry skew models.
	cfg := Config{SkewProb: 1}
	med := NewMedium(radio.NewMedium(radio.Config{}, rng.New(3)), cfg, n, rng.New(4))
	resps, _ := runBackcast(t, med, n, positive, [][]int{{0, 1, 2, 3}})
	if resps[0].Kind != query.Empty {
		t.Fatalf("Kind = %v, want Empty (initiator's window skewed)", resps[0].Kind)
	}
	if c := med.counts; c.Skewed == 0 {
		t.Fatalf("Counts = %+v, want skewed observations", c)
	}
}
