package audit

import "tcast/internal/energy"

// NodeLedgers is the sparse per-node channel-occupancy account over a
// population of N nodes. The dense predecessor allocated N ledgers up
// front — 24 MB of zeroes per audited session at N=10^6 — even though a
// session only occupies the nodes its bins actually polled.
//
// The store is generation-stamped: node ids map to stable slots in an
// entry array through a persistent index that is never cleared, and each
// entry carries the generation that last touched it. Reset is a
// generation bump — nothing is cleared — so a recycled auditor accounts
// sessions with zero steady-state allocations even when a round polls
// the whole field (2tBins round 1 touches every candidate). The index is
// a slice indexed by node id, grown on first touch up to the largest id
// seen: 4 bytes per node and one load per lookup, where a map spent an
// entry per touched node and a hash per lookup.
//
// Untouched nodes implicitly hold the zero ledger; At reports them as
// such, so sparse and dense accounts are observationally identical.
type NodeLedgers struct {
	// N is the population size; ids outside [0, N) are never accounted.
	N int
	// gen is the current session's generation; entries stamped with an
	// older generation are logically absent.
	gen uint64
	// idx maps node id -> slot+1 in entries, 0 for a node never touched.
	// It persists across resets: a node keeps its slot for the lifetime
	// of the store.
	idx []int32
	// entries holds one slot per node ever touched; a slot belongs to
	// the current session iff its gen matches.
	entries []nodeEntry
}

type nodeEntry struct {
	gen    uint64
	id     int
	ledger energy.SlotLedger
}

// reset re-targets the account at a population of n. It invalidates all
// current entries by bumping the generation; slots, index, and capacity
// are all kept.
func (nl *NodeLedgers) reset(n int) {
	nl.N = n
	nl.gen++
}

// ledgerFor returns a mutable ledger for node id (0 <= id), marking it
// touched in the current generation. Steady state (node seen in a prior
// session) allocates nothing; a node's first-ever touch claims a slot.
func (nl *NodeLedgers) ledgerFor(id int) *energy.SlotLedger {
	if id >= len(nl.idx) {
		nl.idx = append(nl.idx, make([]int32, id+1-len(nl.idx))...)
	}
	slot := nl.idx[id] - 1
	if slot < 0 {
		slot = int32(len(nl.entries))
		nl.entries = append(nl.entries, nodeEntry{id: id})
		nl.idx[id] = slot + 1
	}
	e := &nl.entries[slot]
	if e.gen != nl.gen {
		e.gen = nl.gen
		e.ledger = energy.SlotLedger{}
	}
	return &e.ledger
}

// At returns node id's ledger; untouched nodes report the zero ledger.
func (nl NodeLedgers) At(id int) energy.SlotLedger {
	if id >= 0 && id < len(nl.idx) {
		if slot := nl.idx[id] - 1; slot >= 0 && nl.entries[slot].gen == nl.gen {
			return nl.entries[slot].ledger
		}
	}
	return energy.SlotLedger{}
}
