package stats

import "testing"

func TestSumKahanBeatsNaive(t *testing.T) {
	// A classic compensated-summation case: many tiny values plus one
	// large one.
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1e16)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1.0)
	}
	got := Sum(xs)
	want := 1e16 + 10000
	if got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestAverageSeries(t *testing.T) {
	runs := []Series{
		{1, 2, 3},
		{3, 4, 5},
	}
	avg := AverageSeries(runs)
	want := Series{2, 3, 4}
	for i := range want {
		if avg[i] != want[i] {
			t.Fatalf("AverageSeries = %v, want %v", avg, want)
		}
	}
}

func TestAverageSeriesRagged(t *testing.T) {
	runs := []Series{
		{1, 2, 3, 10},
		{3, 4},
	}
	avg := AverageSeries(runs)
	want := Series{2, 3, 3, 10}
	if len(avg) != 4 {
		t.Fatalf("ragged average length = %d, want 4", len(avg))
	}
	for i := range want {
		if avg[i] != want[i] {
			t.Fatalf("ragged AverageSeries = %v, want %v", avg, want)
		}
	}
}

func TestAverageSeriesEmpty(t *testing.T) {
	if got := AverageSeries(nil); len(got) != 0 {
		t.Fatalf("AverageSeries(nil) = %v", got)
	}
}
