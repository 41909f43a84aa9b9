package service

// DetectionView is a round's held-out error-detection score, rendered.
type DetectionView struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// RoundView is one submitted round's measurements: how many pairs were
// labeled and revised, the learner's distance to the reference belief
// (MAE), the round's trainer payoff, and — for sessions created with
// eval — the believed model's detection score on the held-out split.
type RoundView struct {
	Round     int            `json:"round"`
	Labeled   int            `json:"labeled"`
	Revised   int            `json:"revised"`
	MAE       float64        `json:"mae"`
	Payoff    float64        `json:"payoff"`
	Detection *DetectionView `json:"detection,omitempty"`
}

// renderRounds renders the session's rounds from index from on, one
// view per submitted round, from the records the session itself keeps:
// rounds restored from a snapshot and rounds played live take the same
// path. Detection is rendered only for sessions created with eval. Nil
// when no round is at or past from. Caller holds e.mu.
func renderRounds(e *entry, from int) []RoundView {
	n := e.sess.Rounds()
	if from >= n {
		return nil
	}
	out := make([]RoundView, 0, n-from)
	for t := from; t < n; t++ {
		rec := e.sess.Record(t)
		v := RoundView{
			Round:   t,
			Labeled: len(rec.Labeled),
			Revised: len(rec.Revisions),
			MAE:     rec.MAE,
			Payoff:  rec.TrainerPayoff,
		}
		if e.spec.Eval {
			v.Detection = &DetectionView{
				Precision: rec.Detection.Precision,
				Recall:    rec.Detection.Recall,
				F1:        rec.Detection.F1,
			}
		}
		out = append(out, v)
	}
	return out
}
