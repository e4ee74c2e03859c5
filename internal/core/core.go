// Package core implements the paper's threshold-querying algorithms — the
// tcast family — on top of the query.Querier abstraction:
//
//   - 2tBins (Algorithm 1),
//   - Exponential Increase (Algorithm 2) and its two ablation variants,
//   - ABNS, adaptive bin number selection (Algorithm 3, eqs 4 and 6),
//   - Probabilistic ABNS (Section V-D),
//   - the Oracle bin selector (Section V-C, the lower bound),
//   - the bimodal probabilistic detector (Section VI, eqs 7-10).
//
// All algorithms answer the same question: do at least t of the n
// participant nodes hold the poll predicate? They differ only in how they
// re-group the candidate nodes between query rounds.
package core

import (
	"errors"
	"fmt"

	"tcast/internal/binning"
	"tcast/internal/idset"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// Result reports one completed threshold-query session.
type Result struct {
	// Decision is the algorithm's answer to "x >= t?".
	Decision bool
	// Queries is the number of group polls issued — the paper's cost
	// metric. Bins containing no nodes are never polled and cost
	// nothing (Section IV-C).
	Queries int
	// Rounds is the number of re-binning rounds started.
	Rounds int
	// Confirmed is the number of positives identified by 2+ decodes.
	Confirmed int
}

// Algorithm is a threshold-querying strategy. Run executes one session
// over participants {0..n-1} with threshold t, drawing randomness from r.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	Run(q query.Querier, n, t int, r *rng.Source) (Result, error)
}

// ErrRoundLimit is returned when an algorithm fails to converge within the
// safety cap on rounds; it indicates a logic error or an adversarial
// channel, never a legal input on an ideal radio.
var ErrRoundLimit = errors.New("core: round limit exceeded")

// maxRounds bounds any session. Every paper algorithm halves (or at worst
// keeps) the candidate set with high probability each round, so legitimate
// sessions finish in O(log n) rounds; the cap only exists to convert
// would-be livelocks into errors.
const maxRounds = 100000

// Arena pools the per-session allocations — the knowledge ledger (with
// its candidate bitset), the session struct, and every partition and probe
// buffer — so a trial loop can run session after session without touching
// the allocator. The zero value is ready; pass it to an algorithm's RunIn
// (or the RunIn helper) and reuse it across runs. An Arena is not safe for
// concurrent use: pool one per worker or per trial slot.
type Arena struct {
	k    *query.Knowledge
	sess session
}

// newSession returns a session over participants {0..n-1} with threshold
// t, drawing its state from the arena when one is supplied (a nil arena
// allocates fresh state, preserving Run's historical behaviour).
func newSession(a *Arena, q query.Querier, n, t int, r *rng.Source) *session {
	// Fields at or above the sparse cutover stream their rounds instead
	// of materializing partitions.
	streamed := n >= idset.SparseCutover
	if a == nil {
		return &session{q: q, k: query.NewKnowledge(n, t), r: r, streamed: streamed}
	}
	if a.k == nil {
		a.k = query.NewKnowledge(n, t)
	} else {
		a.k.Reset(n, t)
	}
	s := &a.sess
	s.q, s.k, s.r = q, a.k, r
	s.streamed = streamed
	s.res = Result{}
	return s
}

// session carries the per-run state shared by the round-based algorithms.
type session struct {
	q query.Querier
	k *query.Knowledge
	r *rng.Source
	// scratch holds the candidates' member list and arena the random
	// equal-sized partition, both reused across rounds so a
	// materialized round allocates nothing.
	scratch []int
	arena   binning.Arena
	// probeBuf is ProbABNS's reused probabilistic-bin buffer.
	probeBuf []int
	res      Result
	// streamed selects the sparse round path for fields at or above
	// idset.SparseCutover: rounds draw bins one at a time from a keyed
	// permutation (binning.Streamer) against a frozen rank directory of
	// the candidates (idset.Ranked), so per-round cost is O(candidates)
	// with no O(n) shuffle scratch. Below the cutover the classic
	// materialized path runs, keeping its draw sequence — and every
	// committed figure — byte-identical.
	streamed bool
	stream   binning.Streamer
	ranked   idset.Ranked
	binBuf   []int
	// dropped marks the bins of a streamed round that a StreamedQuerier
	// answered and the ledger deferred, and droppedMembers is their
	// total size; settle reads both at round end. marks is settle's
	// pooled one-bit-per-rank map, sized on first use.
	dropped        idset.Dense
	droppedMembers int
	marks          idset.Dense
}

// StreamedQuerier is a querier that answers a poll of a streamed bin
// without its member list: bin i of the partition st draws over the
// ranks of the candidate snapshot rk (fastsim.Channel's QueryStreamed).
// Core looks for it on the outermost querier only, never through
// Unwrap: every layer that observes bins hides it by wrapping, and so
// keeps the materialized path.
type StreamedQuerier interface {
	QueryStreamed(st *binning.Streamer, rk *idset.Ranked, i int) query.Response
}

// partition splits the current candidates into b bins, returning only the
// bins that contain nodes. It shuffles the members into the session's
// partition arena, drawing exactly the same random sequence as
// binning.RandomPartition; callers clamp b to the candidate count, so
// every returned bin is non-empty.
func (s *session) partition(b int) [][]int {
	s.scratch = s.k.Candidates.AppendMembers(s.scratch[:0])
	members := s.scratch
	bins := s.arena.RandomPartition(members, b, s.r)
	// Node-less bins are never polled (Section IV-C); RandomPartition
	// puts them last, so the non-empty bins are a prefix.
	if len(members) < len(bins) {
		bins = bins[:len(members)]
	}
	return bins
}

// decision returns the session's current resolution state.
func (s *session) decision() (answer, decided bool) { return s.k.Decision() }

// queryBin issues one group poll and folds the response into the ledger.
// It returns the response and whether the session is now decided.
func (s *session) queryBin(bin []int) (query.Response, bool) {
	resp := s.q.Query(bin)
	s.res.Queries++
	s.k.Apply(bin, resp, s.q.Traits())
	_, decided := s.k.Decision()
	return resp, decided
}

// roundOutcome summarizes one completed (or cut-short) round.
type roundOutcome struct {
	queried   int // bins actually polled (non-empty of nodes)
	emptyBins int // polled bins that answered Empty
	decided   bool
}

// runRound partitions the current candidates into b random equal-sized
// bins and polls them in order, stopping early the moment the threshold
// question resolves (Algorithm 1 lines 11 and 14).
func (s *session) runRound(b int) roundOutcome {
	s.res.Rounds++
	// Round boundary hook: a querier with a TraceRound method — the
	// observers' query.Tap and the middleware forwarding it down the
	// chain (asserted anonymously, so core names no observer) — learns
	// where each re-binning round starts. The hook receives no channel
	// data and consumes no randomness, so observed and bare runs are
	// bit-identical.
	if rt, ok := s.q.(interface{ TraceRound(round int) }); ok {
		rt.TraceRound(s.res.Rounds)
	}
	if n := s.k.Candidates.Len(); b > n {
		b = n
	}
	if b < 1 {
		b = 1
	}
	if s.streamed {
		return s.runRoundStreamed(b)
	}
	bins := s.partition(b)
	s.k.StartRound()
	var out roundOutcome
	for _, bin := range bins {
		resp, decided := s.queryBin(bin)
		out.queried++
		if resp.Kind == query.Empty {
			out.emptyBins++
		}
		if decided {
			out.decided = true
			return out
		}
	}
	return out
}

// runRoundStreamed is runRound's sparse-field body: the candidates are
// frozen into a rank directory, one 64-bit key replaces the Fisher-Yates
// shuffle, and bins are drawn one at a time. A querier that observes bins
// (metrics, trace, audit, faults all account bin members) receives each
// bin decoded rank-by-rank into one pooled buffer just-in-time for its
// poll, so a round's footprint is O(n/b), not O(n). A StreamedQuerier
// answers from the stream itself and the ledger defers each dropped
// bin, so no bin is decoded during the round; settle then decodes the
// smaller side once. A decided round settles nothing: the session ends.
// Candidate eliminations during the round do not affect the partition:
// like the classic path, bins are drawn against the set as it stood at
// round start (the snapshot), while Apply shrinks the live set.
func (s *session) runRoundStreamed(b int) roundOutcome {
	// Late-session compaction: once a huge field is mostly eliminated
	// (idset's compaction rule), snapshots and membership sweeps drop to
	// O(|candidates|). No-op below the cutover or while still dense.
	s.k.Candidates.Compact()
	s.ranked.Snapshot(s.k.Candidates)
	s.stream.StartPermuted(s.ranked.Len(), b, s.r.Uint64())
	s.k.StartRound()
	var out roundOutcome
	if s.ranked.Len() == 0 {
		// Mirror the classic path: no members, nothing polled.
		return out
	}
	sq, _ := s.q.(StreamedQuerier)
	if sq != nil {
		s.dropped.Reset(b)
		s.droppedMembers = 0
	}
	for i := 0; i < b; i++ {
		var resp query.Response
		var decided bool
		if sq != nil {
			resp, decided = s.queryStreamed(sq, i)
		} else {
			s.binBuf = s.appendBinIDs(s.binBuf[:0], i)
			resp, decided = s.queryBin(s.binBuf)
		}
		out.queried++
		if resp.Kind == query.Empty {
			out.emptyBins++
		}
		if decided {
			out.decided = true
			return out
		}
	}
	if sq != nil {
		s.settle()
	}
	return out
}

// appendBinIDs decodes bin i of the streamed round and appends its ids
// to dst.
func (s *session) appendBinIDs(dst []int, i int) []int {
	start := len(dst)
	dst = s.stream.AppendBin(i, dst)
	for j := start; j < len(dst); j++ {
		dst[j] = s.ranked.Select(dst[j])
	}
	return dst
}

// queryStreamed is queryBin for bin i of a streamed round, answered by
// the querier from the stream: the ledger defers a dropped bin, and the
// session records it for settle.
func (s *session) queryStreamed(sq StreamedQuerier, i int) (query.Response, bool) {
	resp := sq.QueryStreamed(&s.stream, &s.ranked, i)
	s.res.Queries++
	if size := s.stream.BinSize(i); s.k.ApplyDeferred(size, resp, s.q.Traits()) {
		s.dropped.Add(i)
		s.droppedMembers += size
	}
	_, decided := s.k.Decision()
	return resp, decided
}

// settle applies an undecided streamed round's deferred removals in
// snapshot-rank space. It decodes only the smaller side of the
// partition, the dropped bins or the survivors, marks those ranks, and
// filters the candidates against the marks in one pass: it drops the
// marked ranks, or keeps only them. The live set is the snapshot less
// this round's decodes, so the result is the set per-poll removal would
// have left.
func (s *session) settle() {
	keep := 2*s.droppedMembers > s.stream.Members()
	s.marks.Reset(s.stream.Members())
	for i := 0; i < s.stream.Bins(); i++ {
		if s.dropped.Contains(i) != keep {
			s.binBuf = s.stream.AppendBin(i, s.binBuf[:0])
			s.marks.Mark(s.binBuf)
		}
	}
	s.k.Candidates.FilterRanks(&s.ranked, &s.marks, keep)
	s.k.Settled()
}

// finish packages the session into a Result once decided.
func (s *session) finish() Result {
	answer, decided := s.k.Decision()
	if !decided {
		panic("core: finish called on undecided session")
	}
	s.res.Decision = answer
	s.res.Confirmed = s.k.Confirmed
	return s.res
}

// runWithPolicy drives rounds until decided, asking nextBins for the bin
// count before each round. nextBins receives the outcome of the previous
// round (zero value before the first round) and the 1-based upcoming round
// number.
func (s *session) runWithPolicy(nextBins func(round int, prev roundOutcome) int) (Result, error) {
	if _, decided := s.decision(); decided {
		return s.finish(), nil
	}
	var prev roundOutcome
	for round := 1; round <= maxRounds; round++ {
		out := s.runRound(nextBins(round, prev))
		if out.decided {
			return s.finish(), nil
		}
		prev = out
	}
	return s.res, fmt.Errorf("%w after %d rounds", ErrRoundLimit, maxRounds)
}

// ArenaRunner is implemented by every algorithm in this package: RunIn is
// Run with the session state drawn from (and recycled into) an arena. A
// nil arena is equivalent to Run.
type ArenaRunner interface {
	RunIn(a *Arena, q query.Querier, n, t int, r *rng.Source) (Result, error)
}

// RunIn executes one session of alg with pooled session state when the
// algorithm supports it, falling back to plain Run otherwise. Trial loops
// use it so every tcast algorithm threads the same arena.
func RunIn(a *Arena, alg Algorithm, q query.Querier, n, t int, r *rng.Source) (Result, error) {
	if ar, ok := alg.(ArenaRunner); ok {
		return ar.RunIn(a, q, n, t, r)
	}
	return alg.Run(q, n, t, r)
}

func validate(n, t int) error {
	if n < 0 {
		return fmt.Errorf("core: negative participant count %d", n)
	}
	if t < 0 {
		return fmt.Errorf("core: negative threshold %d", t)
	}
	return nil
}
