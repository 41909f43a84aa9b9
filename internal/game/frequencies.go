package game

import "exptrain/internal/belief"

// Frequencies tracks the trainer's empirical action distribution Φ_t
// over labels (Definition 2): how often each label was produced. The
// zero value is an empty tracker.
type Frequencies struct {
	labelCounts [2]int
}

// Record folds one interaction's labelings into the empirical counts.
func (f *Frequencies) Record(labeled []belief.Labeling) {
	for _, lp := range labeled {
		f.labelCounts[lp.Label()]++
	}
}

// DirtyRate returns the empirical frequency of the Dirty label — the
// trainer's realized mixed action over labels.
func (f *Frequencies) DirtyRate() float64 {
	n := f.labelCounts[0] + f.labelCounts[1]
	if n == 0 {
		return 0
	}
	return float64(f.labelCounts[belief.Dirty]) / float64(n)
}
