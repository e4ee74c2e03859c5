// Package trace renders threshold-query sessions as hierarchical spans of
// virtual time. The SpanQuerier middleware wraps any query.Querier, turns
// every group poll into a leaf span and listens for the algorithms' round
// boundaries; a Builder holds the span tree, forks it per trial and grafts
// the forks back in trial order. Traces encode to JSONL, diff span by
// span and summarize per phase. Because the span layer is middleware over
// the Querier interface, it works identically on the abstract channel,
// the packet radio and the mote testbed.
package trace

import (
	"fmt"
	"strconv"
	"sync"

	"tcast/internal/query"
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
// stack) and the SpanQuerier middleware, which turns every group poll
// into a leaf span and listens for the algorithms' round boundaries.

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

// Now returns the current virtual time in slots.
func (b *Builder) Now() int64 { return b.now }

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
// faults, poll grades and verdicts from the audit middleware.
// SpanQuerier collects attributes from every Annotator in the querier
// middleware chain when a session span closes (so an auditor stacked
// below the span layer annotates the session with its verdict).
type Annotator interface {
	TraceAttrs() []Attr
}

// roundTracer is the hook the core algorithms call (via an anonymous
// interface assertion, so core does not import trace) at every re-binning
// round boundary.
type roundTracer interface {
	TraceRound(round int)
}

// slotCounter is implemented by substrates that meter their own slot cost
// (pollcast.Session charges 2 slots per pollcast query, 3 per backcast
// query); SpanQuerier advances virtual time by the metered delta instead
// of the default one slot per poll.
type slotCounter interface {
	Slots() int
}

// SpanQuerier is middleware over query.Querier that renders a session as
// spans: StartSession opens the session span, every Query emits a poll
// leaf and advances the virtual clock by the poll's slot cost, the
// algorithms' round boundaries (TraceRound) open round spans, and
// EndSession closes everything, folding in the result and every
// substrate Annotator in the chain below.
//
// It consumes no randomness and never alters bins or responses, so a
// traced run is bit-identical to a bare one. Not safe for
// concurrent use.
type SpanQuerier struct {
	q query.Querier
	b *Builder

	session *Span
	round   *Span
	polls   int
	nodes   int

	slots     slotCounter
	lastSlots int

	// Head-rate poll sampling (see SetSampling): record one poll leaf in
	// sampleEvery, chosen by a splitmix hash of (sampleKey, session name,
	// poll index). 0 and 1 record every poll.
	sampleEvery int
	sampleKey   uint64
	sessionKey  uint64
}

// NewSpanQuerier wraps q, emitting spans into b.
func NewSpanQuerier(q query.Querier, b *Builder) *SpanQuerier {
	sq := &SpanQuerier{q: q, b: b}
	// Find the innermost slot meter so virtual time tracks the substrate's
	// own cost accounting when it has one.
	for walk := q; walk != nil; {
		if sc, ok := walk.(slotCounter); ok {
			sq.slots = sc
			sq.lastSlots = sc.Slots()
			break
		}
		w, ok := walk.(query.Wrapper)
		if !ok {
			break
		}
		walk = w.Unwrap()
	}
	return sq
}

// StartSession opens the session span. name is typically the algorithm
// name; extra attributes (n, t, x...) may be attached immediately.
func (s *SpanQuerier) StartSession(name string, attrs ...Attr) {
	s.session = s.b.Begin(KindSession, name)
	s.session.SetAttr(attrs...)
	s.polls, s.nodes = 0, 0
	if s.sampleEvery > 1 {
		s.sessionKey = hash64(s.sampleKey ^ hashString(name))
	}
}

// TraceRound implements the algorithms' round hook: it closes the open
// round span, if any, and opens the next one.
func (s *SpanQuerier) TraceRound(round int) {
	if s.round != nil {
		s.b.End()
	}
	s.round = s.b.Begin(KindRound, "round "+strconv.Itoa(round))
	// Forward to any further tracer below (a stacked middleware chain may
	// carry its own hook).
	if rt, ok := s.q.(roundTracer); ok {
		rt.TraceRound(round)
	}
}

// Query implements query.Querier: forward the poll, then emit its leaf
// span and advance the virtual clock by its slot cost. Under sampling
// (SetSampling) unsampled polls still advance the clock and the session
// counters — only the leaf span is elided — so round/session widths and
// the session's polls/nodes_polled attributes stay exact.
func (s *SpanQuerier) Query(bin []int) query.Response {
	resp := s.q.Query(bin)
	adv := int64(1)
	if s.slots != nil {
		now := s.slots.Slots()
		adv = int64(now - s.lastSlots)
		s.lastSlots = now
	}
	if s.sampled() {
		sp := s.b.Begin(KindPoll, "poll "+strconv.Itoa(s.polls))
		s.b.Advance(adv)
		sp.SetAttr(
			IntAttr("bin_size", len(bin)),
			StringAttr("kind", resp.Kind.String()),
		)
		if resp.Kind == query.Decoded {
			sp.SetAttr(IntAttr("decoded_id", resp.DecodedID))
		}
		if s.sampleEvery > 1 {
			sp.SetAttr(IntAttr(AttrSampleRate, s.sampleEvery))
		}
		s.b.End()
	} else {
		s.b.Advance(adv)
	}
	s.polls++
	s.nodes += len(bin)
	return resp
}

// Traits implements query.Querier.
func (s *SpanQuerier) Traits() query.Traits { return s.q.Traits() }

// Unwrap implements query.Wrapper.
func (s *SpanQuerier) Unwrap() query.Querier { return s.q }

// EndSession closes the open round and session spans, annotating the
// session with the poll/energy totals, the given result attributes, and
// every substrate Annotator found below in the middleware chain.
func (s *SpanQuerier) EndSession(attrs ...Attr) {
	if s.session == nil {
		return
	}
	if s.round != nil {
		s.b.End()
		s.round = nil
	}
	s.session.SetAttr(
		IntAttr("polls", s.polls),
		IntAttr("nodes_polled", s.nodes),
	)
	s.session.SetAttr(attrs...)
	for walk := query.Querier(s); walk != nil; {
		if walk != query.Querier(s) {
			if an, ok := walk.(Annotator); ok {
				s.session.SetAttr(an.TraceAttrs()...)
			}
		}
		w, ok := walk.(query.Wrapper)
		if !ok {
			break
		}
		walk = w.Unwrap()
	}
	s.b.End()
	s.session = nil
}
