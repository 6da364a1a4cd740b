//go:build !amd64

package nn

// Off amd64 there is no AVX2 kernel: every product takes the portable tile.
const hasAVX2 = false

func gemmNTAVX2(a, bt, c []float64, m, k, n int) {
	panic("nn: AVX2 kernel called on a non-amd64 build")
}
