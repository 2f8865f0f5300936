package lp

// eliminate is the elimination kernel of the simplex: for every i with
// fs[i] != 0 it computes rows[i][k] −= fs[i]·src[k] over k < len(src)
// (each row is at least that long) and leaves rows with fs[i] == 0
// untouched. It is eliminateGo unless an architecture file installs a
// vector kernel that produces the same bits.
var eliminate = eliminateGo

func eliminateGo(rows [][]float64, fs []float64, src []float64) {
	for i, dst := range rows {
		if f := fs[i]; f != 0 {
			subScaled(dst[:len(src)], src, f)
		}
	}
}

// subScaled computes dst[k] −= f·src[k] over len(dst) entries; it is the
// reference every vector kernel is held to. The explicit conversion
// rounds the product before the subtraction: the language then forbids
// fusing the two into an FMA, so the result is the correctly rounded
// multiply then subtract on every architecture.
func subScaled(dst, src []float64, f float64) {
	src = src[:len(dst)]
	for k := range dst {
		dst[k] -= float64(f * src[k])
	}
}
