package obs

import "tcast/internal/query"

// Publisher is the query.Observer that streams one KindPoll event per
// group poll onto Bus, labelled with Session and Trial. It is the last
// observer on a session's Tap and consumes no randomness, so published
// runs stay byte-identical to bare ones. A session without a bus installs
// none, keeping the pooled hot path allocation-free.
type Publisher struct {
	Bus     *Bus
	Session string
	Trial   int
}

// NewPublisher returns q under a Tap publishing to bus, for one session.
func NewPublisher(q query.Querier, bus *Bus, session string, trial int) *query.Tap {
	return query.NewTap(q, &Publisher{Bus: bus, Session: session, Trial: trial})
}

// OnPoll implements query.Observer: publish the poll's outcome.
func (p *Publisher) OnPoll(poll int, bin []int, resp query.Response) {
	p.Bus.Publish(Event{
		Kind:    KindPoll,
		Session: p.Session,
		Trial:   p.Trial,
		Poll:    poll,
		Bin:     len(bin),
		Outcome: resp.Kind.String(),

		CausalPoll: -1,
	})
}

// OnRound implements query.Observer; round boundaries are not published.
func (p *Publisher) OnRound(int) {}
