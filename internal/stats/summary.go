package stats

// Sum adds the values with Kahan compensation; experiment series are
// aggregated over many runs and iterations, and plain accumulation drifts
// noticeably at the precision the MAE curves are compared at.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Series is a sequence of per-iteration values for one experimental
// condition (one method, one seed).
type Series []float64

// AverageSeries averages point-wise across runs; ragged inputs are
// averaged over however many runs reach each index, so shorter runs do
// not truncate the curve.
func AverageSeries(runs []Series) Series {
	maxLen := 0
	for _, r := range runs {
		if len(r) > maxLen {
			maxLen = len(r)
		}
	}
	out := make(Series, maxLen)
	for i := 0; i < maxLen; i++ {
		var s float64
		var n int
		for _, r := range runs {
			if i < len(r) {
				s += r[i]
				n++
			}
		}
		if n > 0 {
			out[i] = s / float64(n)
		}
	}
	return out
}
