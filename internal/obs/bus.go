package obs

import (
	"sync"
	"sync/atomic"
)

// Sink receives every event published on a Bus. OnEvent is called from
// whichever goroutine publishes — concurrently when trials run in
// parallel — so implementations must be safe for concurrent use and
// should return quickly (buffer or drop rather than block).
type Sink interface {
	OnEvent(Event)
}

// Bus is the streaming event fan-out at the center of the observability
// plane. The publish path is lock-free: the subscriber list is
// copy-on-write (an atomic pointer swap under a mutex held only by
// Subscribe/Unsubscribe), so publishing from many worker goroutines
// never contends on a lock, and a sink may itself publish (the SLO
// engine turns verdicts into anomalies) without deadlocking.
//
// A nil *Bus is a valid no-op publisher, so call sites need no guards.
type Bus struct {
	seq   atomic.Uint64
	mu    sync.Mutex // guards sink-list swaps only
	sinks atomic.Pointer[[]Sink]
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
		next = append(next, *cur...)
	}
	next = append(next, s)
	b.sinks.Store(&next)
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
	next := make([]Sink, 0, len(*cur))
	for _, have := range *cur {
		if have != s {
			next = append(next, have)
		}
	}
	b.sinks.Store(&next)
}

// Publish assigns e its sequence number and delivers it to every
// subscribed sink, synchronously, on the caller's goroutine. With no
// subscribers (or a nil bus) it returns immediately without even
// claiming a sequence number.
func (b *Bus) Publish(e Event) {
	if b == nil {
		return
	}
	sinks := b.sinks.Load()
	if sinks == nil || len(*sinks) == 0 {
		return
	}
	e.Seq = b.seq.Add(1)
	for _, s := range *sinks {
		s.OnEvent(e)
	}
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// OnEvent implements Sink.
func (f SinkFunc) OnEvent(e Event) { f(e) }
