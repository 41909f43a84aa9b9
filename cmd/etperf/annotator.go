package main

import (
	"math/rand/v2"

	"exptrain/client"
)

// The seeded annotator labels from the tuples it is shown, so the
// learner's Incorporate and Revise do real work under load: an
// abstained labeling carries no evidence.
const (
	// dirtyShare of pairs are marked dirty, on the attributes where the
	// two tuples differ; the rest are labelled clean.
	dirtyShare = 0.3
	// Every revisionEvery-th round also revises one earlier labelling
	// with its mark flipped — the paper's annotator-learns path.
	revisionEvery = 8
	// revisionLag is how many rounds back an interactive revision reaches.
	revisionLag = 3
)

type annotator struct {
	rng *rand.Rand
	// shown and given are the pairs of every round and the labels
	// given to them, without revisions.
	shown [][]client.Pair
	given [][]client.Labeling
}

func newAnnotator(seed uint64) *annotator {
	return &annotator{rng: rand.New(rand.NewPCG(seed, 0xA770))}
}

// mark labels one pair.
func (a *annotator) mark(p client.Pair) client.Labeling {
	l := client.Labeling{Pair: [2]int{p.A, p.B}}
	if a.rng.Float64() < dirtyShare {
		l.Marked = differing(p)
	}
	return l
}

// label labels a freshly shown round and remembers it.
func (a *annotator) label(pairs []client.Pair) []client.Labeling {
	out := make([]client.Labeling, len(pairs))
	for i, p := range pairs {
		out[i] = a.mark(p)
	}
	a.shown = append(a.shown, pairs)
	a.given = append(a.given, append([]client.Labeling(nil), out...))
	return out
}

// interactive labels round r of a /next+/submit session. Every
// revisionEvery-th round also revises one pair labelled revisionLag
// rounds earlier.
func (a *annotator) interactive(r int, pairs []client.Pair) []client.Labeling {
	out := a.label(pairs)
	if r%revisionEvery == revisionEvery-1 && r >= revisionLag {
		prev := r - revisionLag
		j := a.rng.IntN(len(a.shown[prev]))
		out = append(out, flip(a.given[prev][j], a.shown[prev][j]))
	}
	return out
}

// batched labels round r of a session played through the labelpool.
// Only round 0's pairs are ever seen — its /next precedes the first
// window — so later rounds abstain on their unseen pairs, and every
// revisionEvery-th round revises one of round 0's pairs, flipping its
// current mark.
func (a *annotator) batched(r int, first []client.Pair) []client.Labeling {
	if r == 0 {
		return a.label(first)
	}
	if r%revisionEvery != revisionEvery-1 {
		return nil
	}
	j := a.rng.IntN(len(first))
	l := flip(a.given[0][j], first[j])
	a.given[0][j] = l
	return []client.Labeling{l}
}

// differing lists the attributes on which the pair's tuples differ.
func differing(p client.Pair) []int {
	var out []int
	for j := range p.ATuple {
		if j < len(p.BTuple) && p.ATuple[j] != p.BTuple[j] {
			out = append(out, j)
		}
	}
	return out
}

// flip turns a clean label dirty and a dirty one clean.
func flip(l client.Labeling, p client.Pair) client.Labeling {
	out := client.Labeling{Pair: l.Pair}
	if len(l.Marked) == 0 {
		out.Marked = differing(p)
		if len(out.Marked) == 0 {
			out.Marked = []int{0}
		}
	}
	return out
}
