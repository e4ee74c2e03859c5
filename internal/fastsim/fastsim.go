// Package fastsim is the paper's simulation substrate: an abstract
// single-hop RCD channel that answers group queries directly from the
// ground-truth positive set.
//
// It models exactly the information an RCD initiator can extract — silence,
// activity, or (in the 2+ model) a captured frame — plus the radio
// imperfections the paper discusses: the CC2420 capture effect,
// per-reply losses ("radio irregularities", the source of the testbed's
// false negatives), and interference-triggered false activity (which
// pollcast suffers and backcast does not).
package fastsim

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"tcast/internal/binning"
	"tcast/internal/idset"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// CaptureModel gives the probability that the initiator's radio locks onto
// and decodes one frame when k >= 1 frames are transmitted simultaneously.
type CaptureModel func(k int) float64

// GeometricCapture returns the default capture model
// P(capture | k) = beta^(k-1): a single frame always decodes, and each
// additional simultaneous frame multiplies the success probability by
// beta. The paper describes capture qualitatively ("decreasing probability
// as the number of messages increase"); beta makes the strength explicit.
//
// The powers are precomputed by the same successive multiplication an
// O(k) loop would perform — so the returned values are bit-identical to
// the loop's — and the model is evaluated on every group poll, so the
// table lookup keeps the query hot path O(1). Superpositions beyond the
// table (k > 64 simultaneous frames, the dense mega-bins of scaled-up
// fields) extend the product once and memoize the extension, so repeated
// oversized polls stay O(1) too. The product stops at its fixed point:
// once p·beta == p (beta^k underflows to 0 near k = 1076 at beta = 0.5),
// every larger k has that same value, so the table ends there and a poll
// of a million-frame superposition costs neither time nor memory. The
// extension is published through an atomic pointer because one model
// instance (defaultCapture) is shared by every parallel trial worker:
// growth is copy-on-write, values are deterministic products of beta,
// and a racing publish of a shorter table merely wastes a future
// re-extension — the returned values are identical either way.
func GeometricCapture(beta float64) CaptureModel {
	var pow [64]float64
	pow[0] = 1
	for i := 1; i < len(pow); i++ {
		pow[i] = pow[i-1] * beta
	}
	// powTail is the memoized continuation of pow: beta^64, beta^65, ...
	// When fixed is set its last value times beta is itself, so it is
	// every later power too.
	type powTail struct {
		vals  []float64
		fixed bool
	}
	var ext atomic.Pointer[powTail]
	return func(k int) float64 {
		if k <= 1 {
			return 1
		}
		if k-1 < len(pow) {
			return pow[k-1]
		}
		need := k - len(pow) // entries beyond the table: exponents 64..k-1
		cur := ext.Load()
		if cur != nil && (len(cur.vals) >= need || cur.fixed) {
			return cur.vals[min(need, len(cur.vals))-1]
		}
		// Extend by the same successive multiplication the fallback loop
		// performed, continuing from the last memoized value, until k or
		// the fixed point.
		grown := &powTail{}
		p := pow[len(pow)-1]
		if cur != nil {
			grown.vals = append(grown.vals, cur.vals...)
			p = grown.vals[len(grown.vals)-1]
		}
		for len(grown.vals) < need && !grown.fixed {
			next := p * beta
			grown.fixed = math.Float64bits(next) == math.Float64bits(p)
			p = next
			grown.vals = append(grown.vals, p)
		}
		if latest := ext.Load(); latest == nil || !latest.fixed && (grown.fixed || len(latest.vals) < len(grown.vals)) {
			ext.Store(grown)
		}
		return grown.vals[min(need, len(grown.vals))-1]
	}
}

// defaultCapture is the shared GeometricCapture(0.5) instance Config
// defaulting binds, so constructing a channel per trial does not allocate
// a fresh closure and power table each time.
var defaultCapture = GeometricCapture(0.5)

// InverseCapture returns the alternative model P(capture | k) = 1/k.
func InverseCapture() CaptureModel {
	return func(k int) float64 {
		if k <= 1 {
			return 1
		}
		return 1 / float64(k)
	}
}

// NoCapture returns a model where simultaneous frames always collide
// destructively: only a lone reply can be decoded. Combined with
// Traits.CaptureEffect == false this gives the idealized 2+ radio in which
// a decode proves a singleton bin.
func NoCapture() CaptureModel {
	return func(k int) float64 {
		if k <= 1 {
			return 1
		}
		return 0
	}
}

// Config selects the radio behaviour of the abstract channel.
type Config struct {
	// Model is the collision model (1+ or 2+).
	Model query.CollisionModel
	// Capture is the capture-effect model for the 2+ radio. Nil means
	// GeometricCapture(0.5). Ignored under 1+.
	Capture CaptureModel
	// CaptureEffectPresent declares whether decodes may hide extra
	// repliers. Set false only together with NoCapture to model the
	// idealized radio.
	CaptureEffectPresent bool
	// MissProb is the probability that any individual reply goes
	// unheard (radio irregularity). A bin responds Empty when every
	// reply is missed — a false negative.
	MissProb float64
	// FalseActiveProb is the probability that interference makes an
	// all-negative bin look Active. Pollcast's CCA sensing is exposed
	// to this; backcast's HACK matching is not (Section III-B).
	FalseActiveProb float64
}

// DefaultConfig returns the ideal 1+ channel used for the paper's main
// simulations.
func DefaultConfig() Config {
	return Config{Model: query.OnePlus}
}

// TwoPlusConfig returns the default 2+ channel: capture effect present with
// the geometric model at beta = 0.5.
func TwoPlusConfig() Config {
	return Config{
		Model:                query.TwoPlus,
		Capture:              defaultCapture,
		CaptureEffectPresent: true,
	}
}

// Channel is one query session against a fixed ground truth. It implements
// query.Querier. Not safe for concurrent use.
type Channel struct {
	positives *idset.Dense
	cfg       Config
	r         *rng.Source
	stats     TxStats
	// heard is reused across queries to keep the per-poll hot path
	// allocation-free.
	heard []int
	// sampleBuf and idxBuf are ResetRandom's reused sampling buffers.
	sampleBuf, idxBuf []int
	// placed and bin are QueryStreamed's reused buffers: a bin's
	// positives with their positions, or a small bin's members.
	placed []placed
	bin    []int
	// posIDs mirrors positives as a sorted ID slice, which QueryStreamed
	// walks when the positives are fewer than a bin's members. It is
	// snapshotted at construction/reset — read off the dense set's words,
	// or at or above idset.SparseCutover sorted from the sample — which
	// is sound because the positive set is fixed for a session's
	// lifetime.
	posIDs []int
}

// samplePositives draws x distinct positives over [0, n): the dense
// partial-Fisher-Yates sampler below idset.SparseCutover — bit-identical
// to the historical Sample call, so every committed figure is unchanged —
// and Floyd's sparse sampler at or above it, where the dense sampler's
// length-n scratch (80 MB at N=10^7) would dominate a trial's footprint.
// Both RandomPositives and ResetRandom route through here, so pooled and
// fresh channels always draw the same sequence.
func samplePositives(n, x int, r *rng.Source, dst, idx []int) (out, scratch []int) {
	if n >= idset.SparseCutover {
		return r.AppendSampleSparse(n, x, dst[:0]), idx
	}
	return r.SampleInto(n, x, dst, idx)
}

// TxStats counts the radio work a session caused — the energy side of the
// paper's motivation. Replies counts individual reply transmissions by
// positive nodes (each reply costs its sender one frame, collided or not);
// Polls counts initiator poll broadcasts.
type TxStats struct {
	Polls   int
	Replies int
}

// New creates a channel over participants {0..n-1} where exactly the
// listed nodes are positive. It panics on out-of-range IDs.
func New(n int, positives []int, cfg Config, r *rng.Source) *Channel {
	set := idset.NewDense(n)
	for _, id := range positives {
		set.Add(id)
	}
	return NewFromSet(set, cfg, r)
}

// NewFromSet is like New but takes ownership of an existing positive set.
// The membership is snapshotted; the caller must not mutate the set
// afterwards (PositiveSet documents the same).
func NewFromSet(positives *idset.Dense, cfg Config, r *rng.Source) *Channel {
	if cfg.Capture == nil {
		cfg.Capture = defaultCapture
	}
	return &Channel{positives: positives, cfg: cfg, r: r, posIDs: positives.Members()}
}

// RandomPositives draws x distinct positive nodes out of n uniformly at
// random and returns the channel plus the chosen set.
func RandomPositives(n, x int, cfg Config, r *rng.Source) (*Channel, *idset.Dense) {
	set := idset.NewDense(n)
	ids, _ := samplePositives(n, x, r, nil, nil)
	for _, id := range ids {
		set.Add(id)
	}
	return NewFromSet(set, cfg, r), set
}

// ResetRandom reinitializes the channel in place for a fresh trial: the
// positive set is redrawn exactly as RandomPositives draws it (the same
// samplePositives sequence on r, so pooled and fresh channels are
// bit-identical), the transmission ledger is zeroed, and every internal
// buffer is recycled, so a warm reset allocates nothing. The sorted
// positives follow the sampler: below idset.SparseCutover, where the
// dense sampler already costs O(n), they are read back off the dense
// set's words without a sort; at or above it Floyd's O(x) sample is
// sorted instead. Pooled trial state calls ResetRandom between trials
// instead of allocating a new channel.
func (c *Channel) ResetRandom(n, x int, cfg Config, r *rng.Source) {
	if cfg.Capture == nil {
		cfg.Capture = defaultCapture
	}
	if c.positives == nil {
		c.positives = idset.NewDense(n)
	} else {
		c.positives.Reset(n)
	}
	c.sampleBuf, c.idxBuf = samplePositives(n, x, r, c.sampleBuf, c.idxBuf)
	for _, id := range c.sampleBuf {
		c.positives.Add(id)
	}
	if n >= idset.SparseCutover {
		// Floyd's few IDs in a huge field: sorting them costs less than
		// reading n/64 words.
		c.posIDs = append(c.posIDs[:0], c.sampleBuf...)
		slices.Sort(c.posIDs)
	} else {
		c.posIDs = c.positives.AppendMembers(c.posIDs[:0])
	}
	c.cfg = cfg
	c.r = r
	c.stats = TxStats{}
}

// Traits implements query.Querier.
func (c *Channel) Traits() query.Traits {
	return query.Traits{Model: c.cfg.Model, CaptureEffect: c.cfg.CaptureEffectPresent}
}

// Positives reports the ground-truth number of positive nodes.
func (c *Channel) Positives() int { return c.positives.Len() }

// IsPositive reports the ground truth for one node.
func (c *Channel) IsPositive(id int) bool { return c.positives.Contains(id) }

// Stats returns the transmission counts accumulated so far.
func (c *Channel) Stats() TxStats { return c.stats }

// Lossless reports whether every response is sound: no reply can be missed
// and no interference can fake activity, so each Response's Min/MaxPositives
// bounds hold against ground truth. The audit layer uses this to decide
// whether Knowledge-bound violations are substrate loss or algorithm bugs.
func (c *Channel) Lossless() bool {
	return c.cfg.MissProb == 0 && c.cfg.FalseActiveProb == 0
}

// TraceAttrs implements trace.Annotator: the abstract channel annotates
// session spans with its radio configuration and transmission ledger.
func (c *Channel) TraceAttrs() []trace.Attr {
	return []trace.Attr{
		trace.StringAttr("substrate", "fastsim"),
		trace.StringAttr("collision_model", c.cfg.Model.String()),
		trace.BoolAttr("capture_effect", c.cfg.CaptureEffectPresent),
		trace.FloatAttr("miss_prob", c.cfg.MissProb),
		trace.FloatAttr("false_active_prob", c.cfg.FalseActiveProb),
		trace.IntAttr("tx_polls", c.stats.Polls),
		trace.IntAttr("tx_replies", c.stats.Replies),
	}
}

// Query implements query.Querier: it polls the bin and reports what the
// initiator's radio observes. The bin's positives reply, in bin order,
// and answer resolves what the initiator hears. Membership is one bit
// test per bin member, so a poll costs O(|bin|) whatever the loss
// configuration.
func (c *Channel) Query(bin []int) query.Response {
	hits := c.heard[:0]
	for _, id := range bin {
		if c.positives.Contains(id) {
			hits = append(hits, id)
		}
	}
	c.heard = hits
	return c.answer(hits)
}

// placed is one positive of a streamed bin and its partition position.
type placed struct{ pos, id int }

// QueryStreamed answers a poll of bin i of a streamed round without the
// bin's member list: st partitions the ranks of the candidate snapshot
// rk, as core's streamed rounds draw them. It returns what Query returns
// for the materialized bin, with the same draws, because a response
// depends only on the bin's positives in bin order. It finds them from
// each positive's snapshot rank and Place, keeping bin i's and sorting
// them by position, which is AppendBin's order. A bin smaller than the
// positive set is cheaper to decode and Query, so a poll costs
// O(min(|positives|, |bin|)).
func (c *Channel) QueryStreamed(st *binning.Streamer, rk *idset.Ranked, i int) query.Response {
	if len(c.posIDs) > st.BinSize(i) {
		bin := st.AppendBin(i, c.bin[:0])
		for j, rank := range bin {
			bin[j] = rk.Select(rank)
		}
		c.bin = bin
		return c.Query(bin)
	}
	in := c.placed[:0]
	for _, id := range c.posIDs {
		if rank, ok := rk.Rank(id); ok {
			if bin, pos := st.Place(rank); bin == i {
				in = append(in, placed{pos, id})
			}
		}
	}
	slices.SortFunc(in, func(a, b placed) int { return cmp.Compare(a.pos, b.pos) })
	hits := c.heard[:0]
	for _, p := range in {
		hits = append(hits, p.id)
	}
	c.placed, c.heard = in, hits
	return c.answer(hits)
}

// answer completes a poll whose bin holds the positives hits, in bin
// order: every hit transmits, each reply is missed independently with
// MissProb (one draw per hit, in order), and the initiator's radio
// observes the heard rest. heard reuses hits' storage.
func (c *Channel) answer(hits []int) query.Response {
	c.stats.Polls++
	c.stats.Replies += len(hits)
	heard := hits
	if c.cfg.MissProb > 0 {
		heard = hits[:0]
		for _, id := range hits {
			if !c.r.Bernoulli(c.cfg.MissProb) {
				heard = append(heard, id)
			}
		}
	}
	k := len(heard)
	if k == 0 {
		if c.cfg.FalseActiveProb > 0 && c.r.Bernoulli(c.cfg.FalseActiveProb) {
			// Interference: energy sensing reports activity. Even a
			// 2+ radio cannot decode interference, so it looks like
			// an undecodable burst; report Active under 1+ and
			// Collision under 2+ would over-claim (>=2), so the
			// conservative interference artifact is Active/Collision
			// per model. Backcast deployments set this to 0.
			if c.cfg.Model == query.OnePlus {
				return query.Response{Kind: query.Active}
			}
			return query.Response{Kind: query.Collision}
		}
		return query.Response{Kind: query.Empty}
	}
	if c.cfg.Model == query.OnePlus {
		return query.Response{Kind: query.Active}
	}
	// 2+ radio: try to capture one frame, a uniformly drawn heard reply.
	if c.r.Bernoulli(c.cfg.Capture(k)) {
		return query.Response{Kind: query.Decoded, DecodedID: heard[c.r.Intn(k)]}
	}
	return query.Response{Kind: query.Collision}
}
