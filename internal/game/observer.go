package game

import (
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
)

// Observer receives structured events from the round engine — one
// callback per phase of the §C.1 interaction protocol. Both execution
// forms emit the same stream: a batch Run, a step-wise Session driven
// by a live annotator, and the HTTP service all go through the one
// engine, so an observer written once sees identical events everywhere.
//
// Contract: events for one game/session are emitted strictly in
// protocol order — RoundStarted(t), PairsPresented(t), then on the
// matching submit RoundSubmitted(t), BeliefUpdated(t), RoundScored(t) —
// with t increasing by one per completed round and never repeated. The
// engine serializes calls for a single game; different games may invoke
// the same observer concurrently, so shared observers must synchronize
// their own state. Slices and beliefs passed in are the engine's live
// state: read them during the call, copy what must outlive it, never
// mutate them.
type Observer interface {
	// RoundStarted fires when the learner begins selecting round t's
	// pairs.
	RoundStarted(t int)
	// PairsPresented fires with the learner's selection for round t.
	PairsPresented(t int, pairs []dataset.Pair)
	// RoundSubmitted fires when the annotator's labelings (and any
	// revisions of earlier rounds) arrive, before evidence is applied.
	RoundSubmitted(t int, labeled, revisions []belief.Labeling)
	// BeliefUpdated fires after the learner incorporated the round's
	// evidence; b is the learner's live belief.
	BeliefUpdated(t int, b *belief.Belief)
	// RoundScored fires last with the completed IterationRecord (MAE,
	// payoff, optional detection score).
	RoundScored(t int, rec IterationRecord)
}

// NopObserver is the no-op Observer. Embed it to implement only the
// events an observer cares about.
type NopObserver struct{}

// RoundStarted implements Observer.
func (NopObserver) RoundStarted(int) {}

// PairsPresented implements Observer.
func (NopObserver) PairsPresented(int, []dataset.Pair) {}

// RoundSubmitted implements Observer.
func (NopObserver) RoundSubmitted(int, []belief.Labeling, []belief.Labeling) {}

// BeliefUpdated implements Observer.
func (NopObserver) BeliefUpdated(int, *belief.Belief) {}

// RoundScored implements Observer.
func (NopObserver) RoundScored(int, IterationRecord) {}
