// Package trace renders threshold-query sessions as hierarchical spans of
// virtual time. The span Observer rides on a query.Tap over any querier,
// turns every group poll into a leaf span and listens for the algorithms'
// round boundaries; a Builder holds the span tree, forks it per trial and
// grafts the forks back in trial order. Traces encode to JSONL, diff span
// by span and summarize per phase. Because the span layer only watches the
// poll stream, it works identically on the abstract channel, the packet
// radio and the mote testbed.
package trace

import (
	"fmt"
	"strconv"
	"sync"

	"tcast/internal/query"
	"tcast/internal/rng"
)

// This file is the span model itself. A span is a named interval of
// *virtual* time — the paper's cost units (RCD slots), never the wall
// clock — so a trace of a seeded run is bit-identical across machines and
// re-runs.
// The hierarchy mirrors how the harness drives a session:
//
//	experiment → series → point → trial → session → round → poll
//
// Spans are produced by a Builder (the virtual clock plus an open-span
// stack) and the span Observer, which turns every group poll into a leaf
// span and listens for the algorithms' round boundaries.

// SpanKind classifies a span's level in the hierarchy.
type SpanKind int

const (
	// KindExperiment is one whole figure/table regeneration or CLI run.
	KindExperiment SpanKind = iota
	// KindSeries is one curve of a figure (one algorithm/configuration).
	KindSeries
	// KindPoint is one sweep point (one x value) of a series.
	KindPoint
	// KindTrial is one independent trial of a point.
	KindTrial
	// KindSession is one threshold-query session (one Algorithm.Run).
	KindSession
	// KindRound is one re-binning round within a session.
	KindRound
	// KindPoll is one group poll — the leaf that advances virtual time.
	KindPoll
)

var kindNames = [...]string{
	KindExperiment: "experiment",
	KindSeries:     "series",
	KindPoint:      "point",
	KindTrial:      "trial",
	KindSession:    "session",
	KindRound:      "round",
	KindPoll:       "poll",
}

// NumSpanKinds is the number of span kinds; SpanKind values are contiguous
// in [0, NumSpanKinds) so they can index fixed-size per-kind arrays.
const NumSpanKinds = len(kindNames)

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("SpanKind(%d)", int(k))
}

// ParseSpanKind inverts String.
func ParseSpanKind(s string) (SpanKind, error) {
	for k, name := range kindNames {
		if name == s {
			return SpanKind(k), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown span kind %q", s)
}

// Attr is one key/value annotation on a span. Values are kept as strings
// so encoding is trivially deterministic; the helpers format numbers with
// strconv, never floating-point defaults that could vary.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// StringAttr builds a string-valued attribute.
func StringAttr(key, value string) Attr { return Attr{Key: key, Value: value} }

// IntAttr builds an integer-valued attribute.
func IntAttr(key string, value int) Attr {
	return Attr{Key: key, Value: strconv.Itoa(value)}
}

// Int64Attr builds a 64-bit integer-valued attribute.
func Int64Attr(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// BoolAttr builds a boolean-valued attribute.
func BoolAttr(key string, value bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(value)}
}

// FloatAttr builds a float-valued attribute, formatted shortest-roundtrip
// so encode→decode→encode is byte-stable.
func FloatAttr(key string, value float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(value, 'g', -1, 64)}
}

// Span is one named virtual-time interval. Start and End are measured in
// the session's cost units (RCD slots): polls advance the clock by the
// slots the substrate charges per group query (1 on the abstract channel,
// 2 for pollcast, 3 for backcast), so [Start, End) is exactly the span's
// share of the paper's time cost.
type Span struct {
	Kind  SpanKind
	Name  string
	Start int64
	End   int64
	// Attrs carries cost-model and substrate annotations (polls, nodes
	// polled, collision model, backoff counts, ...), in emission order.
	Attrs    []Attr
	Children []*Span
}

// SetAttr appends one annotation.
func (s *Span) SetAttr(a ...Attr) { s.Attrs = append(s.Attrs, a...) }

// Attr returns the value of the first attribute with the given key.
func (s *Span) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Slots returns the span's virtual-time width.
func (s *Span) Slots() int64 { return s.End - s.Start }

// Walk visits the span and every descendant in preorder.
func (s *Span) Walk(visit func(depth int, sp *Span)) { s.walk(0, visit) }

func (s *Span) walk(depth int, visit func(int, *Span)) {
	visit(depth, s)
	for _, c := range s.Children {
		c.walk(depth+1, visit)
	}
}

// Trace is a complete recording: a forest of root spans plus run metadata.
type Trace struct {
	// Meta annotates the whole recording (command, seed, substrate...).
	Meta []Attr
	// Roots are the top-level spans in emission order.
	Roots []*Span
}

// NumSpans counts every span in the trace.
func (t *Trace) NumSpans() int {
	n := 0
	for _, r := range t.Roots {
		r.Walk(func(int, *Span) { n++ })
	}
	return n
}

// Builder assembles a span tree against a virtual clock. Span order
// defines the encoded bytes, so a single builder is not safe for
// concurrent emission — with one exception: Fork may be called from
// concurrent trial goroutines. Each fork is an independent builder; the
// parent splices the fragments back in trial-index order with Graft, so a
// parallel run's trace depends only on the seed (see fork.go).
type Builder struct {
	now   int64
	roots []*Span
	stack []*Span
	meta  []Attr

	forkMu sync.Mutex
	forks  map[int]*Builder
}

// NewBuilder returns a builder with the virtual clock at zero.
func NewBuilder() *Builder { return &Builder{} }

// Advance moves the virtual clock forward by d slots. Negative d panics:
// virtual time never rewinds.
func (b *Builder) Advance(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("trace: advancing clock by %d", d))
	}
	b.now += d
}

// SetMeta appends trace-level metadata.
func (b *Builder) SetMeta(a ...Attr) { b.meta = append(b.meta, a...) }

// Begin opens a span starting now, nested under the innermost open span,
// and returns it for annotation. The returned span is owned by the
// builder; callers must not retain it past the matching End.
func (b *Builder) Begin(kind SpanKind, name string) *Span {
	sp := &Span{Kind: kind, Name: name, Start: b.now}
	if len(b.stack) == 0 {
		b.roots = append(b.roots, sp)
	} else {
		parent := b.stack[len(b.stack)-1]
		parent.Children = append(parent.Children, sp)
	}
	b.stack = append(b.stack, sp)
	return sp
}

// End closes the innermost open span at the current virtual time. Ending
// with no span open panics: it means Begin/End calls are unbalanced.
func (b *Builder) End() {
	if len(b.stack) == 0 {
		panic("trace: End without open span")
	}
	sp := b.stack[len(b.stack)-1]
	sp.End = b.now
	b.stack = b.stack[:len(b.stack)-1]
}

// Open reports how many spans are still open.
func (b *Builder) Open() int { return len(b.stack) }

// Trace closes any still-open spans at the current clock and returns the
// finished recording. The builder can keep emitting afterwards, but the
// returned trace is a snapshot of this moment's forest.
func (b *Builder) Trace() *Trace {
	for len(b.stack) > 0 {
		b.End()
	}
	return &Trace{Meta: b.meta, Roots: b.roots}
}

// Annotator lets a layer contribute span attributes it alone knows —
// the collision model and capture configuration on the abstract channel,
// the primitive, slot and air-time ledgers at packet level, injected
// faults, poll grades and verdicts from the auditor. EndSession collects
// them from the query.Layers of the chain from its own Tap down, so an
// auditor beside or below it annotates the verdict.
type Annotator interface {
	TraceAttrs() []Attr
}

// Observer is the span layer's query.Observer: StartSession opens the
// session span, every poll emits a leaf span and advances the virtual
// clock by its slot cost, round boundaries open round spans, and
// EndSession closes everything, folding in the Tap's totals, the result
// and the Annotators. It consumes no randomness, so a traced run is
// bit-identical to a bare one. Not safe for concurrent use.
type Observer struct {
	tap *query.Tap
	b   *Builder

	session *Span
	round   *Span

	// slots is the Tap's query.SlotMeter (pollcast charges 2 slots per
	// query, backcast 3); without one a poll advances one slot.
	slots     interface{ Slots() int }
	lastSlots int

	// Head-rate poll sampling (see SetSampling): record one poll leaf in
	// sampleEvery, chosen by a splitmix hash of (sampleKey, session name,
	// poll index). 0 and 1 record every poll.
	sampleEvery int
	sampleKey   uint64
	sessionKey  uint64
}

// Reset binds o to the Tap t that calls it, emitting spans into b, with
// sampling off. t's totals are the session's, so one binding serves one
// session.
func (o *Observer) Reset(t *query.Tap, b *Builder) {
	*o = Observer{tap: t, b: b, slots: query.SlotMeter(t)}
	if o.slots != nil {
		o.lastSlots = o.slots.Slots()
	}
}

// SpanQuerier is the span layer stacked by hand as a querier: a Tap whose
// one observer is the span Observer.
type SpanQuerier struct {
	query.Tap
	Observer
}

// NewSpanQuerier wraps q, emitting spans into b, for one session.
func NewSpanQuerier(q query.Querier, b *Builder) *SpanQuerier {
	s := new(SpanQuerier)
	s.Tap.Reset(q, &s.Observer)
	s.Observer.Reset(&s.Tap, b)
	return s
}

// StartSession opens the session span. name is typically the algorithm
// name; extra attributes (n, t, x...) may be attached immediately.
func (o *Observer) StartSession(name string, attrs ...Attr) {
	o.session = o.b.Begin(KindSession, name)
	o.session.SetAttr(attrs...)
	if o.sampleEvery > 1 {
		o.sessionKey = rng.Hash64(o.sampleKey ^ rng.HashString(name))
	}
}

// OnRound implements query.Observer: it closes the open round span, if
// any, and opens the next one.
func (o *Observer) OnRound(round int) {
	if o.round != nil {
		o.b.End()
	}
	o.round = o.b.Begin(KindRound, "round "+strconv.Itoa(round))
}

// OnPoll implements query.Observer: it emits the poll's leaf span and
// advances the virtual clock by its slot cost. An unsampled poll
// (SetSampling) still advances the clock, so span widths stay exact.
func (o *Observer) OnPoll(poll int, bin []int, resp query.Response) {
	adv := int64(1)
	if o.slots != nil {
		now := o.slots.Slots()
		adv = int64(now - o.lastSlots)
		o.lastSlots = now
	}
	if !o.sampled(poll) {
		o.b.Advance(adv)
		return
	}
	sp := o.b.Begin(KindPoll, "poll "+strconv.Itoa(poll))
	o.b.Advance(adv)
	sp.SetAttr(
		IntAttr("bin_size", len(bin)),
		StringAttr("kind", resp.Kind.String()),
	)
	if resp.Kind == query.Decoded {
		sp.SetAttr(IntAttr("decoded_id", resp.DecodedID))
	}
	if o.sampleEvery > 1 {
		sp.SetAttr(IntAttr(AttrSampleRate, o.sampleEvery))
	}
	o.b.End()
}

// EndSession closes the open round and session spans, annotating the
// session with the Tap's poll/energy totals, the given result attributes,
// and every Annotator the Tap reaches.
func (o *Observer) EndSession(attrs ...Attr) {
	if o.session == nil {
		return
	}
	if o.round != nil {
		o.b.End()
		o.round = nil
	}
	o.session.SetAttr(
		IntAttr("polls", o.tap.Polls()),
		IntAttr("nodes_polled", o.tap.Nodes()),
	)
	o.session.SetAttr(attrs...)
	query.Layers(o.tap, func(l any, _ *query.Tap) bool {
		if an, ok := l.(Annotator); ok {
			o.session.SetAttr(an.TraceAttrs()...)
		}
		return true
	})
	o.b.End()
	o.session = nil
}
