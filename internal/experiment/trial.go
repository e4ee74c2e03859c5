package experiment

import (
	"sync"

	"tcast/internal/audit"
	"tcast/internal/baseline"
	"tcast/internal/core"
	"tcast/internal/count"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/idset"
	"tcast/internal/kplus"
	"tcast/internal/pollcast"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
)

// trials pools the scratch of every trial that does not run through a
// pooled session.Session: the baselines, the extension tables' channel
// trials, the k+ and estimator series, the fig9 detector and the backcast
// substrate of tab-acc and ext-faults. Each replacement draws exactly
// what the allocating form it replaced drew, in the same order, so pooled
// trials are bit-identical and a warm trial allocates nothing.
var trials = sync.Pool{New: func() any { return newTrialScratch() }}

// trialScratch is one worker's reusable trial state. A trial takes one
// from trials and puts it back when done; nothing in it outlives the
// trial.
type trialScratch struct {
	// streams[l] holds the trial stream's Split(l), derived by split.
	streams [4]rng.Source
	ch      fastsim.Channel
	arena   core.Arena
	auditor audit.Auditor
	// pos is the baselines' positive set, drawn into ids (SampleInto's
	// result) with idx as SampleInto's scratch.
	pos      idset.Dense
	ids, idx []int
	base     baseline.Scratch
	perNode  []float64 // energy.Report.PerNode
	kch      kplus.Channel
	ksc      kplus.Scratch
	ident    count.Scratch
	// members is the identity list {0..n-1} a probe samples from and
	// probe the buffer it is drawn into.
	members, probe []int
	// link and drop are ext-faults' CSMA loss process: drop consults
	// link, and is bound once so a trial installs it without a closure.
	link faults.Link
	drop func(int) bool
	// parts, bc and med are the backcast substrate over backcastN
	// participants; substrate builds it with reply loss miss.
	parts     [backcastN]pollcast.Participant
	bc        *pollcast.Session
	med       radio.Medium
	miss      float64
	substrate func(*rng.Source) (query.Querier, error)
}

func newTrialScratch() *trialScratch {
	sc := new(trialScratch)
	sc.drop = func(int) bool { return sc.link.Lost() }
	sc.substrate = sc.backcast
	return sc
}

// split derives the trial stream's Split(label) into the scratch and
// returns it. Labels are 1 to 3; each stays valid until the next split
// with the same label.
func (sc *trialScratch) split(r *rng.Source, label uint64) *rng.Source {
	s := &sc.streams[label]
	r.SplitInto(label, s)
	return s
}

// sample draws x distinct IDs of [0, n) from the trial's Split(1), as
// r.Split(1).Sample(n, x) would, into the scratch.
func (sc *trialScratch) sample(n, x int, r *rng.Source) []int {
	sc.ids, sc.idx = sc.split(r, 1).SampleInto(n, x, sc.ids, sc.idx)
	return sc.ids
}

// positives draws x positives out of n as sample does and returns them as
// the scratch's dense set.
func (sc *trialScratch) positives(n, x int, r *rng.Source) *idset.Dense {
	sc.pos.Reset(n)
	for _, id := range sc.sample(n, x, r) {
		sc.pos.Add(id)
	}
	return &sc.pos
}

// channel resets the scratch's abstract channel to n nodes with x random
// positives drawn from the trial's Split(1), as fastsim.RandomPositives
// draws them, and returns it.
func (sc *trialScratch) channel(n, x int, cfg fastsim.Config, r *rng.Source) *fastsim.Channel {
	sc.ch.ResetRandom(n, x, cfg, sc.split(r, 1))
	return &sc.ch
}

// csma runs the CSMA baseline over n nodes with threshold t and x
// contenders, drawing from the trial's Split(2).
func (sc *trialScratch) csma(n, t, x int, r *rng.Source) baseline.Result {
	return baseline.CSMA{}.Run(n, t, x, sc.split(r, 2), &sc.base)
}

// sequential draws x positives of n from the trial's Split(1) and runs
// the sequential baseline with threshold t over them from Split(2).
func (sc *trialScratch) sequential(n, t, x int, r *rng.Source) baseline.Result {
	pos := sc.positives(n, x, r)
	return baseline.Sequential{}.Run(n, t, pos, sc.split(r, 2), &sc.base)
}

// identity returns the member list {0..n-1} with a probe buffer that
// holds it.
func (sc *trialScratch) identity(n int) []int {
	if len(sc.members) != n {
		sc.members = make([]int, n)
		for i := range sc.members {
			sc.members[i] = i
		}
		sc.probe = make([]int, 0, n)
	}
	return sc.members
}

// backcast is the packet-level substrate of the audited campaigns: a
// backcast session over a radio medium with per-reply loss sc.miss
// (drawn from Split(1)) and backcastX positives sampled from Split(2).
// The participants and the session over them are built once per scratch
// and reset per trial.
func (sc *trialScratch) backcast(r *rng.Source) (query.Querier, error) {
	if sc.bc == nil {
		ptrs := make([]*pollcast.Participant, backcastN)
		for i := range sc.parts {
			sc.parts[i].ID = i
			ptrs[i] = &sc.parts[i]
		}
		bc, err := pollcast.NewSession(nil, backcastN, ptrs, pollcast.Backcast, query.OnePlus)
		if err != nil {
			return nil, err
		}
		sc.bc = bc
	}
	sc.med.Reset(radio.Config{MissProb: sc.miss}, sc.split(r, 1))
	for i := range sc.parts {
		sc.parts[i].Positive = false
	}
	sc.ids, sc.idx = sc.split(r, 2).SampleInto(backcastN, backcastX, sc.ids, sc.idx)
	for _, id := range sc.ids {
		sc.parts[id].Positive = true
	}
	sc.bc.Reset(&sc.med)
	return sc.bc, nil
}
