package audit

// This file is the channel-accounting half of the auditor: every poll is
// charged to the nodes it occupied, in slots, from the auditor's
// ground-truth vantage point. The analytical models in internal/energy
// assume a schedule; the ledger instead bills what each radio actually did
// in the audited session — which bins a node was polled in and whether it
// truly replied — and energy.TcastSession prices the slots.

// account charges one poll: the initiator broadcasts the poll (tx) and
// listens through the reply window (rx); every bin member receives the
// poll (rx) and then either replies (tx, true positives) or idle-listens
// through the reply window (negatives). Nodes outside the bin sleep and
// are charged nothing.
func (a *Auditor) account(bin []int) {
	a.initiator.Tx++
	a.initiator.Rx++
	for _, id := range bin {
		if id < 0 || id >= a.nodes.N {
			continue
		}
		l := a.nodes.ledgerFor(id)
		l.Rx++
		if a.truth.IsPositive(id) {
			l.Tx++
		} else {
			l.Idle++
		}
	}
}
