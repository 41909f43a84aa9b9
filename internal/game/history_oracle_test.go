package game

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

// historyLearner is the label memory the learner kept before the round
// engine's records took its place: a map from each pair to the last
// labeling incorporated or revised for it, which Revise reversed and
// Session.Submit asked whether a non-pending pair was labeled before.
// It updates its own belief the way the learner did. It is the oracle
// of TestReviseMatchesHistoryOracle.
type historyLearner struct {
	belief  *belief.Belief
	history map[dataset.Pair]belief.Labeling
}

func newHistoryLearner(prior *belief.Belief) *historyLearner {
	return &historyLearner{belief: prior, history: make(map[dataset.Pair]belief.Labeling)}
}

func (h *historyLearner) incorporate(rel *dataset.Relation, labeled []belief.Labeling) {
	if len(labeled) == 0 {
		return
	}
	h.belief.UpdateFromLabelings(rel, labeled, 1)
	h.restore(labeled)
}

func (h *historyLearner) revise(rel *dataset.Relation, revised []belief.Labeling) {
	for _, lp := range revised {
		if old, ok := h.history[lp.Pair]; ok {
			if old.Marked == lp.Marked && old.Abstained == lp.Abstained {
				continue
			}
			h.belief.RemoveLabelings(rel, []belief.Labeling{{Pair: lp.Pair, Marked: old.Marked, Abstained: old.Abstained}}, 1)
		}
		h.belief.UpdateFromLabelings(rel, []belief.Labeling{lp}, 1)
		h.history[lp.Pair] = lp
	}
}

// restore reseeds the memory without touching the belief, as a resumed
// session did from its records.
func (h *historyLearner) restore(labeled []belief.Labeling) {
	for _, lp := range labeled {
		h.history[lp.Pair] = lp
	}
}

// submit is Session.Submit's validation and split as it read the
// memory: the round's full labeling (pending pairs missing from the
// input abstained) and its revisions, or the first offending
// labeling's error.
func (h *historyLearner) submit(pending []dataset.Pair, labeled []belief.Labeling) (full, revisions []belief.Labeling, err error) {
	allowed := make(map[dataset.Pair]bool, len(pending))
	for _, p := range pending {
		allowed[p] = true
	}
	seen := make(map[dataset.Pair]bool, len(labeled))
	for _, lp := range labeled {
		if seen[lp.Pair] {
			return nil, nil, fmt.Errorf("game: duplicate labeling for pair %v", lp.Pair)
		}
		seen[lp.Pair] = true
		if allowed[lp.Pair] {
			full = append(full, lp)
			continue
		}
		if _, before := h.history[lp.Pair]; before {
			revisions = append(revisions, lp)
			continue
		}
		return nil, nil, fmt.Errorf("game: labeling for pair %v which was neither presented this round nor labeled before", lp.Pair)
	}
	for _, p := range pending {
		if !seen[p] {
			full = append(full, belief.Labeling{Pair: p, Abstained: true})
		}
	}
	return full, revisions, nil
}

// sameBelief reports the first hypothesis whose Beta differs in any bit.
func sameBelief(got, want *belief.Belief) error {
	if got.Size() != want.Size() {
		return fmt.Errorf("belief sizes %d and %d", got.Size(), want.Size())
	}
	for i := 0; i < want.Size(); i++ {
		g, w := got.Dist(i), want.Dist(i)
		if math.Float64bits(g.Alpha) != math.Float64bits(w.Alpha) || math.Float64bits(g.Beta) != math.Float64bits(w.Beta) {
			return fmt.Errorf("hypothesis %d: Beta(%v, %v), want Beta(%v, %v)", i, g.Alpha, g.Beta, w.Alpha, w.Beta)
		}
	}
	return nil
}

// deltaLog records each round's write-ahead delta the way the service's
// recorder does: the round's labelings with the learner's post-round
// belief and sampler RNG state.
type deltaLog struct {
	NopObserver
	sess    *Session
	learner []persist.BetaJSON
	deltas  []*persist.RoundDelta
}

func (d *deltaLog) BeliefUpdated(t int, b *belief.Belief) { d.learner = persist.BeliefToJSON(b) }

func (d *deltaLog) RoundScored(t int, rec IterationRecord) {
	st := d.sess.RNGState()
	d.deltas = append(d.deltas, &persist.RoundDelta{
		Session: "s",
		Round:   t,
		Interaction: persist.FromRound(persist.Round{
			Labeled: rec.Labeled, Revisions: rec.Revisions, MAE: rec.MAE, Payoff: rec.TrainerPayoff,
		}),
		Learner:    d.learner,
		LearnerRNG: st[:],
	})
}

// randomMarks draws a labeling's marks over arity attributes: clean,
// abstained, or one or two marked attributes.
func randomMarks(rng *stats.RNG, p dataset.Pair, arity int) belief.Labeling {
	switch rng.Intn(4) {
	case 0:
		return belief.Labeling{Pair: p}
	case 1:
		return belief.Labeling{Pair: p, Abstained: true}
	case 2:
		return belief.Labeling{Pair: p, Marked: fd.NewAttrSet(rng.Intn(arity))}
	default:
		return belief.Labeling{Pair: p, Marked: fd.NewAttrSet(rng.Intn(arity), rng.Intn(arity))}
	}
}

// TestReviseMatchesHistoryOracle plays seeded sessions whose annotator
// labels, abstains, omits pending pairs, revises earlier labels
// (abstained ones and already revised ones included, some revisions
// identical to the label they replace) and submits malformed rounds
// (an unknown pair, a duplicate, in random positions), against the
// map-backed label memory. Each session is resumed once from a snapshot
// and once from a write-ahead log reopened from disk, so later rounds
// revise labels the resumed session only knows from its records. Every
// Submit must return the oracle's error, every round must record the
// oracle's labelings and revisions, and the learner's belief must equal
// the oracle's bit for bit after every round.
func TestReviseMatchesHistoryOracle(t *testing.T) {
	const rounds, snapshotAt, walBaseAt, walReplayAt = 14, 4, 7, 11
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			ctx := context.Background()
			rel, space, _, _ := buildWorld(t, 40+seed)
			arity := rel.Schema().Arity()
			rec := &deltaLog{}
			cfg := func(obs Observer) SessionConfig {
				return SessionConfig{Relation: rel, Space: space, K: 4, Seed: seed, Observer: obs}
			}
			sess, err := NewSession(cfg(rec))
			if err != nil {
				t.Fatal(err)
			}
			rec.sess = sess
			oracle := newHistoryLearner(sess.Belief().Clone())
			var oracleRecords [][2][]belief.Labeling
			reseed := func() {
				oracle.history = make(map[dataset.Pair]belief.Labeling)
				for _, r := range oracleRecords {
					oracle.restore(r[0])
					oracle.restore(r[1])
				}
			}
			rng := stats.NewRNG(seed ^ 0x0AC1E)
			dir := t.TempDir()
			inner, err := persist.NewDirStore(filepath.Join(dir, "snaps"))
			if err != nil {
				t.Fatal(err)
			}
			var store *wal.Store

			for round := 0; round < rounds; round++ {
				switch round {
				case snapshotAt:
					snap, err := sess.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					rec = &deltaLog{}
					if sess, err = ResumeSession(snap, cfg(rec)); err != nil {
						t.Fatal(err)
					}
					rec.sess = sess
					reseed()
				case walBaseAt:
					if store, _, err = wal.OpenStore(inner, filepath.Join(dir, "wal"), wal.StoreConfig{}); err != nil {
						t.Fatal(err)
					}
					snap, err := sess.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if err := store.Put(ctx, "s", snap); err != nil {
						t.Fatal(err)
					}
					rec.deltas = nil
				case walReplayAt:
					if err := store.Close(); err != nil {
						t.Fatal(err)
					}
					if store, _, err = wal.OpenStore(inner, filepath.Join(dir, "wal"), wal.StoreConfig{}); err != nil {
						t.Fatal(err)
					}
					snap, err := store.Get(ctx, "s")
					if err != nil {
						t.Fatal(err)
					}
					if len(snap.History) != round {
						t.Fatalf("replayed snapshot holds %d rounds, want %d", len(snap.History), round)
					}
					rec = &deltaLog{}
					if sess, err = ResumeSession(snap, cfg(rec)); err != nil {
						t.Fatal(err)
					}
					rec.sess = sess
					reseed()
				}

				pending, err := sess.Next()
				if err != nil {
					t.Fatal(err)
				}
				var labeled []belief.Labeling
				for _, p := range pending {
					if rng.Intn(5) > 0 { // else omitted: recorded as abstained
						labeled = append(labeled, randomMarks(rng, p, arity))
					}
				}
				// Revise up to three earlier pairs, drawn from every pair
				// labeled so far.
				known := make([]dataset.Pair, 0, len(oracle.history))
				for p := range oracle.history {
					known = append(known, p)
				}
				sort.Slice(known, func(i, j int) bool {
					return known[i].A < known[j].A || known[i].A == known[j].A && known[i].B < known[j].B
				})
				for n := rng.Intn(4); n > 0 && len(known) > 0; n-- {
					k := rng.Intn(len(known))
					p := known[k]
					known = append(known[:k], known[k+1:]...)
					if rng.Intn(4) == 0 {
						labeled = append(labeled, oracle.history[p]) // identical: a no-op
					} else {
						labeled = append(labeled, randomMarks(rng, p, arity))
					}
				}
				rng.Shuffle(len(labeled), func(i, j int) { labeled[i], labeled[j] = labeled[j], labeled[i] })

				// A malformed round first: an unknown pair, a duplicate,
				// or both, anywhere in the input.
				if len(labeled) > 0 && rng.Intn(3) == 0 {
					bad := append([]belief.Labeling(nil), labeled...)
					insert := func(lp belief.Labeling) {
						at := rng.Intn(len(bad) + 1)
						bad = append(bad[:at], append([]belief.Labeling{lp}, bad[at:]...)...)
					}
					kind := rng.Intn(3)
					if kind != 1 {
						for {
							a := rng.Intn(rel.NumRows())
							p := dataset.NewPair(a, (a+1+rng.Intn(rel.NumRows()-1))%rel.NumRows())
							if _, ok := oracle.history[p]; !ok && !slices.Contains(pending, p) {
								insert(belief.Labeling{Pair: p})
								break
							}
						}
					}
					if kind != 0 {
						insert(bad[rng.Intn(len(bad))])
					}
					_, _, werr := oracle.submit(pending, bad)
					gerr := sess.Submit(bad)
					if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
						t.Fatalf("round %d: Submit error %v, want %v", round, gerr, werr)
					}
					if sess.PendingCount() != len(pending) {
						t.Fatalf("round %d: a rejected submit left %d pending pairs, want %d", round, sess.PendingCount(), len(pending))
					}
				}

				full, revisions, werr := oracle.submit(pending, labeled)
				if werr != nil {
					t.Fatalf("round %d: oracle rejected a valid round: %v", round, werr)
				}
				if err := sess.Submit(labeled); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				oracle.incorporate(rel, full)
				oracle.revise(rel, revisions)
				oracleRecords = append(oracleRecords, [2][]belief.Labeling{full, revisions})
				got := sess.Record(round)
				if !slices.Equal(got.Labeled, full) || !slices.Equal(got.Revisions, revisions) {
					t.Fatalf("round %d: recorded %v / %v, want %v / %v", round, got.Labeled, got.Revisions, full, revisions)
				}
				if err := sameBelief(sess.Belief(), oracle.belief); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if store != nil {
					if err := store.AppendRounds(ctx, rec.deltas); err != nil {
						t.Fatal(err)
					}
					rec.deltas = nil
				}
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// dupRelabeler is a relabeling annotator that also makes the
// revisions Session.Submit rejects but the Run driver passes straight
// through: it revises its first revised pair a second time in the same
// call, every third round revises a pair nobody labeled, and every
// other round revises one of the pairs it labeled that same round,
// revising that pair again the round after.
type dupRelabeler struct {
	*agents.RelabelingTrainer
	round    int
	labeled  []belief.Labeling
	sameCall []dataset.Pair
}

func (d *dupRelabeler) Label(rel *dataset.Relation, pairs []dataset.Pair) []belief.Labeling {
	d.labeled = d.RelabelingTrainer.Label(rel, pairs)
	return d.labeled
}

func (d *dupRelabeler) Revisions(rel *dataset.Relation) []belief.Labeling {
	out := d.RelabelingTrainer.Revisions(rel)
	d.round++
	if len(out) > 0 {
		again := out[0]
		again.Marked, again.Abstained = 0, !again.Abstained
		out = append(out, again)
	}
	if n := rel.NumRows(); d.round%3 == 0 {
		out = append(out, belief.Labeling{Pair: dataset.NewPair(d.round%n, (d.round+1)%n), Marked: fd.NewAttrSet(1)})
	}
	switch {
	case d.round%2 == 0 && len(d.labeled) > 0:
		p := d.labeled[len(d.labeled)-1].Pair
		out = append(out, belief.Labeling{Pair: p, Marked: fd.NewAttrSet(d.round % rel.Schema().Arity())})
		d.sameCall = append(d.sameCall, p)
	case d.round%2 == 1 && len(d.sameCall) > 0:
		out = append(out, belief.Labeling{Pair: d.sameCall[0], Abstained: true})
		d.sameCall = d.sameCall[1:]
	}
	return out
}

// beliefTrace keeps a copy of the learner's belief after every round.
type beliefTrace struct {
	NopObserver
	after []*belief.Belief
	sub   [][2][]belief.Labeling
}

func (b *beliefTrace) RoundSubmitted(t int, labeled, revisions []belief.Labeling) {
	b.sub = append(b.sub, [2][]belief.Labeling{labeled, revisions})
}

func (b *beliefTrace) BeliefUpdated(t int, bl *belief.Belief) { b.after = append(b.after, bl.Clone()) }

// TestRunRevisionsMatchHistoryOracle replays a Run game's rounds —
// including a pair revised twice in one call, revisions of pairs never
// labeled and of pairs labeled in the same round, revised again later —
// through the map-backed label memory, and demands the learner's belief
// after every round bit for bit.
func TestRunRevisionsMatchHistoryOracle(t *testing.T) {
	twice, unseen := 0, 0
	for seed := uint64(1); seed <= 4; seed++ {
		rel, space, pool, _ := buildWorld(t, 50+seed)
		rng := stats.NewRNG(seed)
		prior := belief.DataEstimatePrior(space, rel, 0.1)
		trainer := &dupRelabeler{
			RelabelingTrainer: agents.NewRelabelingTrainer(agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.2), rng.Split())),
		}
		learner := agents.NewLearner(prior.Clone(), sampling.StochasticUS{}, rng.Split())
		trace := &beliefTrace{}
		if _, err := Run(rel, trainer, learner, pool, Config{K: 5, Iterations: 12, Observer: trace}); err != nil {
			t.Fatal(err)
		}
		oracle := newHistoryLearner(prior)
		for r, sub := range trace.sub {
			oracle.incorporate(rel, sub[0])
			inCall := make(map[dataset.Pair]bool)
			for _, lp := range sub[1] {
				if inCall[lp.Pair] {
					twice++
				} else if _, ok := oracle.history[lp.Pair]; !ok {
					unseen++
				}
				inCall[lp.Pair] = true
			}
			oracle.revise(rel, sub[1])
			if err := sameBelief(trace.after[r], oracle.belief); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, r, err)
			}
		}
		if len(trace.sub) != 12 {
			t.Fatalf("seed %d: played %d rounds, want 12", seed, len(trace.sub))
		}
	}
	if twice == 0 || unseen == 0 {
		t.Fatalf("the games revised a pair twice in one call %d times and an unlabeled pair %d times; want both", twice, unseen)
	}
}
