// Package game implements the exploratory-training game of Section 2:
// the interaction loop between trainer and learner, the trainer payoff
// u_T, the interaction history and the trainer's empirical label
// frequencies (Definition 2).
package game

import (
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
)

// TrainerPayoff is u_T(θ, π): the sum over the interaction's labelings
// of the probability the trainer's belief assigns to its own labels
// (Section 2). A trainer acting in best response maximizes this given
// its belief.
func TrainerPayoff(b *belief.Belief, rel *dataset.Relation, labeled []belief.Labeling) float64 {
	var u float64
	for _, lp := range labeled {
		u += b.LabelPayoff(rel, lp.Pair, lp.Label())
	}
	return u
}
