package main

import "sort"

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// medianOfRounds is the statistic every timing metric uses: the median of
// the per-round medians, never a percentile of the pooled samples, so a
// burst of interference moves at most the rounds it covers.
func medianOfRounds(rounds [][]float64) float64 {
	meds := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		if len(r) > 0 {
			meds = append(meds, median(r))
		}
	}
	return median(meds)
}

// quartiles matches Python's statistics.quantiles(xs, n=4): the
// exclusive method, the one the acceptance check uses. It needs at least
// two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spreadPct is the distance between the first and third quartile as a
// percentage of the median.
func spreadPct(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med * 100
}

// tailLadder is the percentiles a tail may be reported at.
var tailLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it; below twenty samples that is the
// median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		// The slack absorbs the rounding of percentiles such as 99.9.
		if float64(n)*(100-p)/100 >= 10-1e-6 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(float64(len(s))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
