package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestEliminateAVX2MatchesGo holds the AVX2 elimination kernel to the
// portable loop, called directly, bit for bit: every row length 0–67
// (so every residue of the 8- and 4-lane blocks and the scalar tail is
// hit), every start offset mod 4 (unaligned loads), factors of ±0.0
// (rows left untouched) and NaN, and operands that include ±0.0,
// subnormals, huge and tiny magnitudes, overflow to ±Inf and
// NaN-producing Inf − Inf. A sentinel after each row catches writes
// past len(src).
func TestEliminateAVX2MatchesGo(t *testing.T) {
	if !hasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1e300, -1e-300, 1e-160, 1e160,
		math.Inf(1), math.Inf(-1),
	}
	rng := rand.New(rand.NewSource(1))
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	const sentinel = 12345.678
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			src := make([]float64, off+n)[off:]
			for k := range src {
				src[k] = draw()
			}
			const nRows = 6
			want := make([][]float64, nRows)
			got := make([][]float64, nRows)
			fs := make([]float64, nRows)
			for i := range want {
				want[i] = make([]float64, off+n+1)[off:]
				for k := range want[i] {
					want[i][k] = draw()
				}
				want[i][n] = sentinel
				got[i] = append(make([]float64, off), want[i]...)[off:]
				fs[i] = draw()
			}
			fs[0], fs[1], fs[2] = 0, math.Copysign(0, -1), math.NaN()
			fs[3] = special[n%len(special)]
			eliminateGo(want, fs, src)
			eliminateAVX2(got, fs, src)
			for i := range want {
				for k := range want[i] {
					if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
						t.Fatalf("n=%d off=%d row %d (f=%v): entry %d = %v (%#x), Go loop %v (%#x)",
							n, off, i, fs[i], k, got[i][k], math.Float64bits(got[i][k]), want[i][k], math.Float64bits(want[i][k]))
					}
				}
			}
		}
	}
}
