// Package timing models IEEE 802.15.4 / CC2420 air times so that query
// and slot counts translate into wall-clock latency — the paper's bottom
// line is "significant time improvements", and this package makes the
// conversion explicit and auditable.
//
// Numbers follow the 2.4 GHz O-QPSK PHY used by the TelosB's CC2420: 250
// kbit/s (32 µs per byte, 16 µs per symbol), 12-symbol turnarounds, and
// the standard unit backoff period of 20 symbols.
package timing

import "time"

// PHY constants for the 2.4 GHz O-QPSK 802.15.4 PHY.
const (
	// SymbolTime is one PHY symbol (4 bits).
	SymbolTime = 16 * time.Microsecond
	// ByteTime is the air time of one byte at 250 kbit/s.
	ByteTime = 32 * time.Microsecond
	// SHRBytes is the synchronization header: 4 preamble bytes + SFD.
	SHRBytes = 5
	// PHRBytes is the PHY header (frame length).
	PHRBytes = 1
	// MPDUOverheadBytes is a data frame's MAC overhead: frame control
	// (2) + sequence (1) + short addressing (2+2+2 with PAN id) + FCS
	// (2).
	MPDUOverheadBytes = 11
	// AckMPDUBytes is an (H)ACK frame's MPDU: frame control + sequence
	// + FCS.
	AckMPDUBytes = 5
	// TurnaroundSymbols is aTurnaroundTime, the RX/TX switch.
	TurnaroundSymbols = 12
	// BackoffSymbols is aUnitBackoffPeriod.
	BackoffSymbols = 20
)

// Turnaround is the RX/TX (or TX/RX) switching time.
const Turnaround = TurnaroundSymbols * SymbolTime // 192 µs

// BackoffSlot is one unit backoff period — the slot the CSMA baseline
// counts.
const BackoffSlot = BackoffSymbols * SymbolTime // 320 µs

// FrameAirtime returns the air time of a data frame carrying payload
// bytes: SHR + PHR + MAC overhead + payload.
func FrameAirtime(payloadBytes int) time.Duration {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	return time.Duration(SHRBytes+PHRBytes+MPDUOverheadBytes+payloadBytes) * ByteTime
}

// AckAirtime returns the air time of an (H)ACK frame: 352 µs, the figure
// the backcast work quotes.
func AckAirtime() time.Duration {
	return time.Duration(SHRBytes+PHRBytes+AckMPDUBytes) * ByteTime
}

// Costs bundles the per-operation latencies of every scheme in the
// repository, for one deployment's frame sizing.
//
// Per Section IV-D, the initiator broadcasts the predicate and the
// node-to-group map once per re-binning round ("broadcasts a predicate P
// along with a group identifier that maps each participant node to a
// group, and then query each group separately"); each group query is then
// a short poll to the group's ephemeral address plus its simultaneous
// reply.
type Costs struct {
	// RoundBind is the per-round broadcast carrying the predicate and
	// the full group assignment (one group id per node).
	RoundBind time.Duration
	// PollcastQuery is one group poll over pollcast: short poll frame,
	// turnaround, simultaneous vote frame.
	PollcastQuery time.Duration
	// BackcastQuery is one group poll over backcast: short poll frame
	// to the ephemeral address, turnaround, superposed HACK.
	BackcastQuery time.Duration
	// CSMASlot is one contention backoff slot, including CCA.
	CSMASlot time.Duration
	// SequentialSlot is one TDMA reply slot: a reply frame plus a
	// turnaround guard.
	SequentialSlot time.Duration
}

// DefaultCosts sizes frames for a deployment of n nodes: the round bind
// carries one group id byte per node; per-query polls carry a 3-byte
// header (ephemeral address + sequence); votes and replies carry a 2-byte
// answer.
func DefaultCosts(n int) Costs {
	if n < 1 {
		n = 1
	}
	bind := FrameAirtime(n + 2)
	poll := FrameAirtime(3)
	vote := FrameAirtime(2)
	return Costs{
		RoundBind:      bind,
		PollcastQuery:  poll + Turnaround + vote,
		BackcastQuery:  poll + Turnaround + AckAirtime(),
		CSMASlot:       BackoffSlot,
		SequentialSlot: vote + Turnaround,
	}
}

// TcastLatency converts a tcast session's query and round counts into
// latency over backcast, the primitive the paper's implementation uses.
func (c Costs) TcastLatency(queries, rounds int) time.Duration {
	return time.Duration(rounds)*c.RoundBind + time.Duration(queries)*c.BackcastQuery
}

// CSMALatency converts a CSMA session's slot count into latency. A slot
// that carried a successful reply lasts a frame, not a backoff period;
// the caller passes both counts.
func (c Costs) CSMALatency(slots, delivered int) time.Duration {
	idle := slots - delivered
	if idle < 0 {
		idle = 0
	}
	return time.Duration(idle)*c.CSMASlot + time.Duration(delivered)*(FrameAirtime(2)+Turnaround)
}

// SequentialLatency converts a sequential session's slot count into
// latency, charging the schedule broadcast up front.
func (c Costs) SequentialLatency(slots int) time.Duration {
	schedule := FrameAirtime(2 * slots / 8) // rough: 2 bits per scheduled node
	return schedule + time.Duration(slots)*c.SequentialSlot
}
