package main

import "testing"

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) gives, which the acceptance rule for a
// benchmark's spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	}
	for _, c := range cases {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	base := []float64{10, 11, 10, 12, 11, 10, 11, 12, 10, 11}
	faster := []float64{8, 8, 8, 9, 8, 8, 8, 9, 8, 8}
	cases := []struct {
		name  string
		a, b  []float64
		lower bool
		won   int
		want  string
	}{
		{"faster wins every pair", base, faster, true, 10, "HEAD better"},
		{"slower loses every pair", faster, base, true, 0, "HEAD worse"},
		{"higher is better", base, faster, false, 0, "HEAD worse"},
		{"identical runs tie", base, base, true, 0, "no claim"},
		{"nine pairs are too few", base[:9], faster[:9], true, 9, "too few pairs"},
		{"win rate below nine in ten", base, append([]float64{12, 12}, faster[2:]...), true, 8, "no claim"},
	}
	for _, c := range cases {
		won, got := compare(c.a, c.b, c.lower)
		if won != c.won || got != c.want {
			t.Errorf("%s: compare = %d, %q; want %d, %q", c.name, won, got, c.won, c.want)
		}
	}
}
