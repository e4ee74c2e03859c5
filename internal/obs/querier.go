package obs

import "tcast/internal/query"

// Publisher is the query.Observer that streams one KindPoll event per
// group poll onto Bus, labelled with Session and Trial. It is the last
// observer on a session's Tap and consumes no randomness, so published
// runs stay byte-identical to bare ones. A session without a bus installs
// none, keeping the pooled hot path allocation-free.
//
// While no sink on Bus reads poll events (see PollBlind), OnPoll builds
// no event: it only counts, and Flush hands the count to the bus. Every
// owner of a Publisher flushes it once per session, errored sessions
// included, before the session's chain and verdict events are published;
// PublishChainEvents flushes every Publisher on its chain first.
type Publisher struct {
	Bus     *Bus
	Session string
	Trial   int

	polls uint64 // counted since the last Flush
}

// NewPublisher returns q under a Tap publishing to bus, for one session.
// PublishChainEvents over the returned Tap flushes its poll count.
func NewPublisher(q query.Querier, bus *Bus, session string, trial int) *query.Tap {
	return query.NewTap(q, &Publisher{Bus: bus, Session: session, Trial: trial})
}

// OnPoll implements query.Observer: publish the poll's outcome, or count
// it while no sink reads polls.
func (p *Publisher) OnPoll(poll int, bin []int, resp query.Response) {
	set := p.Bus.subscribers()
	switch {
	case set == nil:
	case !set.readsPolls:
		p.polls++
	default:
		p.Bus.deliver(set, Event{
			Kind:    KindPoll,
			Session: p.Session,
			Trial:   p.Trial,
			Poll:    poll,
			Bin:     len(bin),
			Outcome: resp.Kind.String(),

			CausalPoll: -1,
		})
	}
}

// OnRound implements query.Observer; round boundaries are not published.
func (p *Publisher) OnRound(int) {}

// Flush hands the polls counted since the last Flush to the bus: their
// sequence numbers and their share of every PollBlind sink's count.
func (p *Publisher) Flush() {
	p.Bus.addPolls(p.polls)
	p.polls = 0
}

// flushPublishers flushes every Publisher on q's chain.
func flushPublishers(q query.Querier) {
	query.Layers(q, func(l any, _ *query.Tap) bool {
		if p, ok := l.(*Publisher); ok {
			p.Flush()
		}
		return true
	})
}
