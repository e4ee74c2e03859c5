package obs

import (
	"sync"
	"sync/atomic"
)

// Sink receives every event published on a Bus. OnEvent is called from
// whichever goroutine publishes — concurrently when trials run in
// parallel — so implementations must be safe for concurrent use and
// should return quickly (buffer or drop rather than block).
//
// A sink reads KindPoll events unless it implements PollBlind and its
// ReadsPolls reports false.
type Sink interface {
	OnEvent(Event)
}

// PollBlind is implemented by a Sink that can do without KindPoll events.
// While every sink on a bus is poll-blind, a Publisher builds no poll
// events: it counts its session's polls and hands the count to the bus
// once per session, before the session's chain and verdict events, and
// the bus passes it on to OnPolls.
type PollBlind interface {
	// ReadsPolls reports whether OnEvent reads KindPoll events. The bus
	// asks once, at Subscribe.
	ReadsPolls() bool
	// OnPolls stands in for n KindPoll events that one session published
	// while no sink on the bus read them.
	OnPolls(n uint64)
}

// sinkSet is one copy-on-write generation of a bus's subscribers.
type sinkSet struct {
	all []Sink
	// readsPolls reports whether any sink reads KindPoll events.
	readsPolls bool
}

func newSinkSet(all []Sink) *sinkSet {
	set := &sinkSet{all: all}
	for _, s := range all {
		if pb, ok := s.(PollBlind); !ok || pb.ReadsPolls() {
			set.readsPolls = true
		}
	}
	return set
}

// Bus is the streaming event fan-out at the center of the observability
// plane. The publish path is lock-free: the subscriber list is
// copy-on-write (an atomic pointer swap under a mutex held only by
// Subscribe/Unsubscribe), so publishing from many worker goroutines
// never contends on a lock, and a sink may itself publish (the SLO
// engine turns verdicts into anomalies) without deadlocking.
//
// Every event claims the next sequence number, and so does every poll a
// Publisher counts instead of publishing (see PollBlind): a session's
// counted polls advance Seq by their number, once, before its chain and
// verdict events are published. In a serial run every non-poll event
// therefore carries the Seq it would carry were every poll published, and
// every per-kind event total reads the same at session end.
//
// A nil *Bus is a valid no-op publisher, so call sites need no guards.
type Bus struct {
	seq   atomic.Uint64
	mu    sync.Mutex // guards sink-list swaps only
	sinks atomic.Pointer[sinkSet]
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers s to receive every subsequently published event.
func (b *Bus) Subscribe(s Sink) {
	if b == nil || s == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var next []Sink
	if cur := b.sinks.Load(); cur != nil {
		next = append(next, cur.all...)
	}
	b.sinks.Store(newSinkSet(append(next, s)))
}

// Unsubscribe removes s; events published afterwards no longer reach it.
// Unknown sinks are ignored.
func (b *Bus) Unsubscribe(s Sink) {
	if b == nil || s == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.sinks.Load()
	if cur == nil {
		return
	}
	next := make([]Sink, 0, len(cur.all))
	for _, have := range cur.all {
		if have != s {
			next = append(next, have)
		}
	}
	b.sinks.Store(newSinkSet(next))
}

// subscribers returns the current sink set, nil when there is none (or
// on a nil bus).
func (b *Bus) subscribers() *sinkSet {
	if b == nil {
		return nil
	}
	set := b.sinks.Load()
	if set == nil || len(set.all) == 0 {
		return nil
	}
	return set
}

// Publish assigns e its sequence number and delivers it to every
// subscribed sink, synchronously, on the caller's goroutine. With no
// subscribers (or a nil bus) it returns immediately without even
// claiming a sequence number.
func (b *Bus) Publish(e Event) {
	if set := b.subscribers(); set != nil {
		b.deliver(set, e)
	}
}

func (b *Bus) deliver(set *sinkSet, e Event) {
	e.Seq = b.seq.Add(1)
	for _, s := range set.all {
		s.OnEvent(e)
	}
}

// addPolls stands in for n poll events no sink read: it claims their n
// sequence numbers and tells every PollBlind sink. With no subscribers
// it claims nothing, as Publish does.
func (b *Bus) addPolls(n uint64) {
	if n == 0 {
		return
	}
	set := b.subscribers()
	if set == nil {
		return
	}
	b.seq.Add(n)
	for _, s := range set.all {
		if pb, ok := s.(PollBlind); ok {
			pb.OnPolls(n)
		}
	}
}

// SinkFunc adapts a function to the Sink interface. It reads every
// event, poll events included.
type SinkFunc func(Event)

// OnEvent implements Sink.
func (f SinkFunc) OnEvent(e Event) { f(e) }
