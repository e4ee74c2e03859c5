package audit

// This file is the channel-accounting half of the auditor: every poll is
// charged to the nodes it occupied, in slots, from the auditor's
// ground-truth vantage point. The analytical models in internal/energy
// assume a schedule; the ledger instead bills what each radio actually did
// in the audited session — which bins a node was polled in and whether it
// truly replied — and energy.TcastSession prices the slots.

// charge bills node id's share of one poll (OnPoll charges the
// initiator's): the initiator broadcasts the poll (tx) and listens
// through the reply window (rx); every bin member receives the poll (rx)
// and then either replies (tx, true positives) or idle-listens through
// the reply window (negatives). Nodes outside the bin sleep and are
// charged nothing, and OnPoll charges no id outside [0, N).
func (a *Auditor) charge(id int, positive bool) {
	l := a.nodes.ledgerFor(id)
	l.Rx++
	if positive {
		l.Tx++
	} else {
		l.Idle++
	}
}
