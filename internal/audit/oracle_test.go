package audit

import (
	"fmt"
	"testing"

	"tcast/internal/metrics"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// onPollOracle is the auditor's three-pass OnPoll as it stood before the
// one-pass walk: a subset check, a true-positive count, then, after the
// shadow Apply, a ledger pass that asks IsPositive again. It counts each
// graded poll into polls at once, where the auditor now adds a session's
// classes when it flushes.
func onPollOracle(a *Auditor, polls *[NumClasses]*metrics.Counter, bin []int, resp query.Response) {
	idx := len(a.polls)
	traits := a.Traits()

	for _, id := range bin {
		if id < 0 || id >= a.n || !a.shadow.Candidates.Contains(id) {
			a.violate(idx, InvariantBinSubset,
				fmt.Sprintf("node %d polled outside the candidate set", id))
			break
		}
	}

	k := 0
	for _, id := range bin {
		if a.truth.IsPositive(id) {
			k++
		}
	}
	class := classify(bin, resp, traits, a.truth, k)

	prevConfirmed, prevCand := a.shadow.Confirmed, a.shadow.Candidates.Len()
	a.shadow.Apply(bin, resp, traits)
	if a.shadow.Confirmed < prevConfirmed {
		a.violate(idx, InvariantConfirmedMonotone,
			fmt.Sprintf("confirmed fell %d -> %d", prevConfirmed, a.shadow.Confirmed))
	}
	if now := a.shadow.Candidates.Len(); now > prevCand {
		a.violate(idx, InvariantCandidatesMonotone,
			fmt.Sprintf("candidates grew %d -> %d", prevCand, now))
	}
	if a.lossless {
		if lb := a.shadow.LowerBound(); lb > a.trueX {
			a.violate(idx, InvariantLowerBound,
				fmt.Sprintf("lower bound %d exceeds true x=%d", lb, a.trueX))
		}
		if ub := a.shadow.UpperBound(); ub < a.trueX {
			a.violate(idx, InvariantUpperBound,
				fmt.Sprintf("upper bound %d below true x=%d", ub, a.trueX))
		}
	}

	accountOracle(a, bin)
	a.classes[class]++
	if c := polls[class]; c != nil {
		c.Inc()
	}
	a.polls = append(a.polls, PollRecord{
		BinSize: len(bin), Kind: resp.Kind, TruePositives: k, Class: class,
	})
}

// accountOracle is the ledger pass of onPollOracle.
func accountOracle(a *Auditor, bin []int) {
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

// panics reports whether f panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// FuzzOnPollMatchesOracle: on random bins — duplicate ids, ids outside
// [0, n), ids that are no longer candidates — with every response kind,
// decodes naming members and strangers, under 1+ and 2+ with and without
// capture, on lossy and lossless substrates, the one-pass OnPoll leaves
// exactly what the three-pass oracle leaves after every poll: the poll
// records and classes, the violations with their details, every node
// ledger and the initiator's. After Finish, the registry's class
// partition equals the oracle's per-poll counts. A poll that panics (the
// shadow ledger rejects some ids outside the field) must panic in both
// and ends the session.
func FuzzOnPollMatchesOracle(f *testing.F) {
	for _, seed := range []struct {
		seed            uint64
		n, polls, shape uint8
	}{
		{1, 16, 12, 0}, {2, 16, 30, 1}, {3, 8, 20, 2}, {4, 40, 40, 3},
		{5, 1, 6, 4}, {6, 24, 60, 5}, {7, 64, 24, 6}, {8, 5, 50, 7},
	} {
		f.Add(seed.seed, seed.n, seed.polls, seed.shape)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nb, pollsb, shape uint8) {
		n := int(nb%64) + 1
		r := rng.New(seed)
		truth := map[int]bool{}
		for id := -3; id < n+3; id++ {
			truth[id] = r.Intn(3) == 0
		}
		traits := query.Traits{Model: query.OnePlus}
		if shape&1 != 0 {
			traits = query.Traits{Model: query.TwoPlus, CaptureEffect: shape&2 != 0}
		}
		base := scripted{truth: truth, traits: traits}
		var fastRoot, oracleRoot query.Querier = &scripted{truth: truth, traits: traits}, &scripted{truth: truth, traits: traits}
		if shape&4 != 0 {
			fastRoot, oracleRoot = &losslessScripted{base}, &losslessScripted{base}
		}
		cfg := Config{N: n, T: 1 + r.Intn(n), Metrics: metrics.New()}
		fast, err := New(fastRoot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracleReg := metrics.New()
		var oraclePolls [NumClasses]*metrics.Counter
		for c := Class(0); int(c) < NumClasses; c++ {
			oraclePolls[c] = oracleReg.Counter(MetricAuditPolls, "class", c.String())
		}
		oracle, err := New(oracleRoot, Config{N: cfg.N, T: cfg.T})
		if err != nil {
			t.Fatal(err)
		}
		if fast.Lossless() != (shape&4 != 0) {
			t.Fatalf("lossless = %v for shape %d", fast.Lossless(), shape)
		}
		kinds := []query.Kind{query.Empty, query.Active, query.Decoded, query.Collision}
		var bin []int
		for p := 0; p < int(pollsb%64); p++ {
			if r.Intn(5) == 0 {
				fast.OnRound(p)
				oracle.OnRound(p)
			}
			// One bin in eight may hold ids outside the field, which
			// can end the session (see panics).
			bin = bin[:0]
			stray := r.Intn(8) == 0
			for size := r.Intn(min(2*n, 12) + 1); len(bin) < size; {
				switch v := r.Intn(20); {
				case stray && v == 0:
					bin = append(bin, -1-r.Intn(3))
				case stray && v == 1:
					bin = append(bin, n+r.Intn(3))
				case v < 4 && len(bin) > 0:
					bin = append(bin, bin[r.Intn(len(bin))])
				default:
					bin = append(bin, r.Intn(n))
				}
			}
			resp := query.Response{Kind: kinds[r.Intn(len(kinds))]}
			if resp.Kind == query.Decoded {
				if len(bin) > 0 && r.Intn(4) != 0 {
					resp.DecodedID = bin[r.Intn(len(bin))]
				} else {
					resp.DecodedID = r.Intn(n+6) - 3
				}
			}
			fp := panics(func() { fast.OnPoll(p, bin, resp) })
			op := panics(func() { onPollOracle(oracle, &oraclePolls, bin, resp) })
			if fp != op {
				t.Fatalf("poll %d %v %+v: one-pass panicked %v, oracle %v", p, bin, resp, fp, op)
			}
			if fp {
				return
			}
			if err := sameAudit(fast, oracle); err != nil {
				t.Fatalf("poll %d %v %+v: %v", p, bin, resp, err)
			}
		}
		fv, ov := fast.Finish(true), oracle.Finish(true)
		if fv.Outcome != ov.Outcome || fv.CausalPoll != ov.CausalPoll || fv.Polls != ov.Polls {
			t.Fatalf("verdict %+v, oracle %+v", fv, ov)
		}
		fast.Finish(true) // a second Finish adds nothing
		for c := Class(0); int(c) < NumClasses; c++ {
			got := cfg.Metrics.Counter(MetricAuditPolls, "class", c.String()).Value()
			if want := oraclePolls[c].Value(); got != want || got != int64(fast.classes[c]) {
				t.Fatalf("%s{class=%q} = %d, oracle counted %d per poll", MetricAuditPolls, c, got, want)
			}
		}
	})
}

// sameAudit compares everything one poll leaves in two auditors.
func sameAudit(a, b *Auditor) error {
	if len(a.polls) != len(b.polls) {
		return fmt.Errorf("%d poll records, oracle %d", len(a.polls), len(b.polls))
	}
	for i := range a.polls {
		if a.polls[i] != b.polls[i] {
			return fmt.Errorf("poll record %d = %+v, oracle %+v", i, a.polls[i], b.polls[i])
		}
	}
	if a.classes != b.classes {
		return fmt.Errorf("classes %v, oracle %v", a.classes, b.classes)
	}
	if len(a.violations) != len(b.violations) {
		return fmt.Errorf("violations %v, oracle %v", a.violations, b.violations)
	}
	for i := range a.violations {
		if a.violations[i] != b.violations[i] {
			return fmt.Errorf("violation %d = %+v, oracle %+v", i, a.violations[i], b.violations[i])
		}
	}
	if a.initiator != b.initiator {
		return fmt.Errorf("initiator ledger %+v, oracle %+v", a.initiator, b.initiator)
	}
	for id := -3; id < a.n+3; id++ {
		if la, lb := a.nodes.At(id), b.nodes.At(id); la != lb {
			return fmt.Errorf("node %d ledger %+v, oracle %+v", id, la, lb)
		}
	}
	return nil
}
