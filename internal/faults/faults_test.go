package faults

import (
	"reflect"
	"strings"
	"testing"

	"tcast/internal/query"
	"tcast/internal/rng"
)

// recordQ records every bin it is polled with and answers with a fixed
// response.
type recordQ struct {
	bins [][]int
	resp query.Response
}

func (q *recordQ) Query(bin []int) query.Response {
	q.bins = append(q.bins, append([]int(nil), bin...))
	return q.resp
}

func (q *recordQ) Traits() query.Traits { return query.Traits{} }

func TestInactiveInjectorTransparent(t *testing.T) {
	inner := &recordQ{resp: query.Response{Kind: query.Active}}
	r := rng.New(42)
	j := New(inner, Config{}, 8, r)

	bin := []int{1, 3, 5}
	for i := 0; i < 4; i++ {
		resp := j.Query(bin)
		if resp.Kind != query.Active {
			t.Fatalf("poll %d: Kind = %v, want Active", i, resp.Kind)
		}
	}
	for i, got := range inner.bins {
		if !reflect.DeepEqual(got, bin) {
			t.Fatalf("poll %d: inner saw bin %v, want %v", i, got, bin)
		}
	}
	// The inactive injector must consume no randomness at all: the stream
	// it was handed is still at its origin.
	if got, want := r.Uint64(), rng.New(42).Uint64(); got != want {
		t.Fatalf("inactive injector consumed randomness: next draw %d, want %d", got, want)
	}
	if !j.Lossless() {
		t.Fatal("inactive injector must report lossless")
	}
	if attrs := j.TraceAttrs(); attrs != nil {
		t.Fatalf("inactive injector must contribute no trace attrs, got %v", attrs)
	}
	if ev := j.Events(); len(ev) != 0 {
		t.Fatalf("inactive injector logged events: %v", ev)
	}
	if got := j.Counts(); got.Polls != 4 || got.Lost != 0 || got.Silenced != 0 {
		t.Fatalf("Counts = %+v, want 4 untouched polls", got)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		want    Config
		wantErr string
	}{
		{spec: "", want: Config{}},
		{
			spec: "burst=4",
			want: Config{Burst: BurstConfig{PGoodBad: 0.25 / 4, PBadGood: 0.25}},
		},
		{
			spec: "burst=2,frac=0.5,missbad=0.8",
			want: Config{Burst: BurstConfig{PGoodBad: 0.5, PBadGood: 0.5, MissBad: 0.8}},
		},
		{
			spec: "churn=0.05",
			want: Config{Churn: ChurnConfig{CrashProb: 0.05, RecoverProb: 0.1}},
		},
		{
			spec: "churn=0.05,recover=0.5,skew=0.01",
			want: Config{Churn: ChurnConfig{CrashProb: 0.05, RecoverProb: 0.5}, SkewProb: 0.01},
		},
		{spec: "frac=0.2", wantErr: "frac without burst"},
		{spec: "burst=0.5", wantErr: "must be >= 1"},
		{spec: "burst=2,frac=1", wantErr: "bad fraction"},
		{spec: "skew=1.5", wantErr: "outside [0, 1]"},
		{spec: "bogus=1", wantErr: "unknown key"},
		{spec: "burst", wantErr: "not key=value"},
		{spec: "burst=x", wantErr: "invalid syntax"},
		// Non-finite values are rejected by key, never turned into a
		// silently inactive or NaN-valued config.
		{spec: "churn=NaN", wantErr: "churn: NaN is not a finite number"},
		{spec: "skew=nan", wantErr: "skew: NaN is not a finite number"},
		{spec: "burst=Inf", wantErr: "burst: +Inf is not a finite number"},
		{spec: "burst=NaN", wantErr: "burst: NaN is not a finite number"},
		{spec: "burst=8,frac=NaN", wantErr: "frac: NaN is not a finite number"},
		{spec: "missbad=-inf", wantErr: "missbad: -Inf is not a finite number"},
		{spec: "corrupt=+Infinity", wantErr: "corrupt: +Inf is not a finite number"},
		{spec: "burst=1e400", wantErr: "value out of range"},
		// An explicit negative fraction is an error, not the default.
		{spec: "burst=4,frac=-0.5", wantErr: "bad fraction"},
		{spec: "frac=-1", wantErr: "frac without burst"},
		// A fraction the burst length cannot reach would need PGoodBad > 1.
		{spec: "burst=1,frac=0.9", wantErr: "unreachable"},
		{spec: "burst=1,frac=0.5", want: Config{Burst: BurstConfig{PGoodBad: 1, PBadGood: 1}}},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseSpec(%q) err = %v, want containing %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		const eps = 1e-12
		if diff := got.Burst.PGoodBad - tc.want.Burst.PGoodBad; diff > eps || diff < -eps {
			t.Errorf("ParseSpec(%q).Burst.PGoodBad = %v, want %v", tc.spec, got.Burst.PGoodBad, tc.want.Burst.PGoodBad)
		}
		got.Burst.PGoodBad = tc.want.Burst.PGoodBad
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

// FuzzParseSpec: every accepted spec yields finite probabilities in
// [0, 1] whose thresholds agree with Active and drive an injector
// without panicking; every rejected spec returns an error and the zero
// Config.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"", "burst=4", "burst=2,frac=0.5,missbad=0.8", "churn=0.05,recover=0.5,skew=0.01",
		"burst=8,frac=0.2,churn=0.002,recover=0.1,skew=0.01", "corrupt=0.25,missgood=0.1",
		"frac=0.2", "burst=0.5", "burst=2,frac=1", "skew=1.5", "churn=NaN", "burst=Inf",
		"burst=8,frac=NaN", "burst=1,frac=0.9", "burst=1e300,frac=0.999", " burst = 2 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			if cfg != (Config{}) {
				t.Fatalf("ParseSpec(%q) failed with %v but returned %+v", spec, err, cfg)
			}
			return
		}
		norm := cfg.normalized()
		probs := []float64{
			norm.Burst.PGoodBad, norm.Burst.PBadGood, norm.Burst.MissGood, norm.Burst.MissBad,
			norm.Churn.CrashProb, norm.Churn.RecoverProb, norm.SkewProb, norm.DecodeCorruptProb,
		}
		for _, p := range probs {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseSpec(%q) = %+v: probability %v outside [0, 1]", spec, cfg, p)
			}
		}
		var c chains
		c.reset(norm, 1)
		never := rng.Threshold{}
		fires := c.link[0] != never || c.miss[0] != never || c.churn[0] != never ||
			rng.NewThreshold(norm.SkewProb) != never || rng.NewThreshold(norm.DecodeCorruptProb) != never
		if cfg.Active() != fires {
			t.Fatalf("ParseSpec(%q) = %+v: Active() = %v but thresholds say %v", spec, cfg, cfg.Active(), fires)
		}
		j := New(&echoQ{}, cfg, 4, rng.New(1))
		for i := 0; i < 3; i++ {
			j.Query([]int{0, 1, 2, 3})
		}
	})
}

func TestChurnSilencesCrashedNodes(t *testing.T) {
	inner := &recordQ{resp: query.Response{Kind: query.Active}}
	j := New(inner, Config{Churn: ChurnConfig{CrashProb: 1}}, 4, rng.New(1))

	resp := j.Query([]int{0, 1, 2, 3})
	// Every node crashes at the first step, so the substrate is polled
	// with an empty bin; the substrate's answer still passes through.
	if got := inner.bins[0]; len(got) != 0 {
		t.Fatalf("inner polled with %v, want empty bin", got)
	}
	if resp.Kind != query.Active {
		t.Fatalf("Kind = %v, want the substrate's Active", resp.Kind)
	}
	c := j.Counts()
	if c.Crashes != 4 || c.Silenced != 4 {
		t.Fatalf("Counts = %+v, want 4 crashes silencing 4 members", c)
	}
	if j.Lossless() {
		t.Fatal("active injector must not report lossless")
	}
	ev := j.Events()
	if len(ev) != 1 || !reflect.DeepEqual(ev[0].Silenced, []int{0, 1, 2, 3}) {
		t.Fatalf("Events = %+v, want one event silencing all four", ev)
	}
}

func TestBurstDefaultsMissBadToOne(t *testing.T) {
	inner := &recordQ{resp: query.Response{Kind: query.Active}}
	// PGoodBad=1 drives every node bad at the first step; MissBad left
	// zero must default to 1, dropping every reply.
	j := New(inner, Config{Burst: BurstConfig{PGoodBad: 1}}, 3, rng.New(1))
	j.Query([]int{0, 1, 2})
	if got := inner.bins[0]; len(got) != 0 {
		t.Fatalf("inner polled with %v, want empty bin (all replies burst-lost)", got)
	}
	if c := j.Counts(); c.Lost != 3 {
		t.Fatalf("Counts.Lost = %d, want 3", c.Lost)
	}
}

func TestSkewForcesSilence(t *testing.T) {
	inner := &recordQ{resp: query.Response{Kind: query.Active}}
	j := New(inner, Config{SkewProb: 1}, 4, rng.New(1))
	resp := j.Query([]int{0, 1})
	if resp.Kind != query.Empty {
		t.Fatalf("Kind = %v, want Empty (skewed listen window)", resp.Kind)
	}
	// The substrate still ran the poll — the initiator just missed the
	// reply — with the bin intact (no burst or churn configured).
	if got := inner.bins[0]; !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("inner polled with %v, want [0 1]", got)
	}
	if c := j.Counts(); c.Skewed != 1 {
		t.Fatalf("Counts.Skewed = %d, want 1", c.Skewed)
	}
}

func TestDescribeJoinsPollsToEvents(t *testing.T) {
	inner := &recordQ{resp: query.Response{Kind: query.Active}}
	j := New(inner, Config{Churn: ChurnConfig{CrashProb: 1}}, 2, rng.New(1))
	j.Query([]int{0, 1}) // poll 0: both crash, both silenced
	j.Query([]int{0})    // poll 1: already down, 0 silenced again

	if got := j.Describe(0); !strings.Contains(got, "poll 0") || !strings.Contains(got, "crashed") {
		t.Fatalf("Describe(0) = %q, want a crash event at poll 0", got)
	}
	if got := j.Describe(1); !strings.Contains(got, "poll 1") || !strings.Contains(got, "silent") {
		t.Fatalf("Describe(1) = %q, want a silenced event at poll 1", got)
	}
	if got := j.Describe(5); got != "no injected fault" {
		t.Fatalf("Describe(5) = %q, want no injected fault", got)
	}
	if got := j.Describe(-1); got != "no injected fault" {
		t.Fatalf("Describe(-1) = %q, want no injected fault", got)
	}
}

func TestFilterReusesScratchWithoutAliasing(t *testing.T) {
	inner := &recordQ{resp: query.Response{Kind: query.Active}}
	// Node 0 permanently down, others up: every poll drops exactly node 0.
	// The crash rate keeps the injector active but never fires, and with
	// no recover rate node 0 never comes back.
	j := New(inner, Config{Churn: ChurnConfig{CrashProb: 1e-300}}, 4, rng.New(1))
	j.down[0] = true

	bin := []int{0, 1, 2, 3}
	j.Query(bin)
	if got := inner.bins[0]; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("inner polled with %v, want [1 2 3]", got)
	}
	// The caller's bin must be untouched.
	if !reflect.DeepEqual(bin, []int{0, 1, 2, 3}) {
		t.Fatalf("caller's bin mutated to %v", bin)
	}
}

func TestLinkBurstLoss(t *testing.T) {
	// PGoodBad=1 with defaulted MissBad=1: the chain enters bad on the
	// first step and every frame is lost while PBadGood=0 keeps it there.
	l := NewLink(BurstConfig{PGoodBad: 1}, rng.New(1))
	for i := 0; i < 5; i++ {
		if !l.Lost() {
			t.Fatalf("step %d: frame survived, want lost (bad state, MissBad=1)", i)
		}
	}
	// An inactive link loses nothing and consumes no meaningful state.
	quiet := NewLink(BurstConfig{}, rng.New(1))
	for i := 0; i < 5; i++ {
		if quiet.Lost() {
			t.Fatalf("step %d: inactive link lost a frame", i)
		}
	}
}
