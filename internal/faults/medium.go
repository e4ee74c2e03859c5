package faults

import (
	"time"

	"tcast/internal/radio"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// Medium is the packet-level fault layer: a radio.Channel middleware that
// degrades an inner medium with the same three processes the querier
// Injector models, but at slot granularity — per-node Gilbert–Elliott
// chains and churn chains step once per slot, a crashed node's
// transmissions never reach the channel and its radio hears nothing, a
// bad-state node's votes and HACKs (the lossy frame kinds) are dropped at
// the transmitter, and a skewed slot makes the initiator's radio miss the
// decoded frame while still sensing its energy.
//
// Participants carry IDs in [0, n); skew applies only to receivers
// outside that range — the initiator, whose listen window the skew
// models. All draws come from the dedicated stream r; an inactive config
// makes the wrapper a transparent pass-through that consumes no
// randomness, so zero-rate faulted runs stay byte-identical to bare ones.
type Medium struct {
	inner radio.Channel
	cfg   Config
	r     *rng.Source
	n     int

	chains
	skewed bool
	counts Counts
}

// NewMedium wraps inner with fault injection over participants {0..n-1}.
func NewMedium(inner radio.Channel, cfg Config, n int, r *rng.Source) *Medium {
	m := &Medium{inner: inner, cfg: cfg.normalized(), r: r, n: n}
	m.chains.reset(m.cfg, n)
	return m
}

// BeginSlot advances the fault chains one slot and opens the inner slot.
func (m *Medium) BeginSlot() {
	m.inner.BeginSlot()
	if !m.cfg.Active() {
		return
	}
	m.step(m.r)
	m.counts.Crashes += len(m.crashed)
	m.counts.Recovers += len(m.recovered)
	m.skewed = m.cfg.SkewProb > 0 && m.r.Bernoulli(m.cfg.SkewProb)
}

// Transmit forwards f unless the fault layer swallows it: crashed
// transmitters send nothing, and lossy frames from bad-state links are
// dropped before they reach the channel.
func (m *Medium) Transmit(f radio.Frame) {
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

// Observe resolves the slot for one receiver. A crashed participant's
// radio is off — it neither senses energy nor decodes. A skewed slot
// strips the decoded frame from the initiator's observation (receivers
// outside the participant range) but keeps the energy reading: the window
// opened late, after the preamble.
func (m *Medium) Observe(receiver int) radio.Observation {
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

// EndSlot closes the inner slot.
func (m *Medium) EndSlot() { m.inner.EndSlot() }

// Slot forwards the inner slot counter.
func (m *Medium) Slot() int { return m.inner.Slot() }

// Elapsed forwards the inner air-time clock.
func (m *Medium) Elapsed() time.Duration { return m.inner.Elapsed() }

// Lossless reports whether the composed channel can still neither drop a
// reply nor fake activity: the inner medium's own report vetoed by any
// active fault process.
func (m *Medium) Lossless() bool { return m.inner.Lossless() && !m.cfg.Active() }

// TraceAttrs forwards the inner medium's annotations, appending the fault
// tallies when the config is active (an inactive wrapper contributes
// nothing, keeping zero-rate traces byte-identical).
func (m *Medium) TraceAttrs() []trace.Attr {
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
