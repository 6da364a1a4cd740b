//go:build !amd64

package nn

// Off amd64 there is no vector kernel: every product takes the portable
// tile and every row operation its Go loop.
const (
	hasAVX2   = false
	hasAVX512 = false
)

func gemmNTAVX512(a, bt, c []float64, m, k, n int) { panic("nn: AVX-512 kernel called off amd64") }

func gemmNTAVX2(a, bt, c []float64, m, k, n, j0 int) { panic("nn: AVX2 kernel called off amd64") }

func addToAVX2(dst, src []float64) { panic("nn: AVX2 kernel called off amd64") }

func add3AVX2(dst, a, b, c []float64) { panic("nn: AVX2 kernel called off amd64") }

func hadamardAVX2(dst, a, b []float64) { panic("nn: AVX2 kernel called off amd64") }

func lerpAVX2(dst, z, a, b []float64) { panic("nn: AVX2 kernel called off amd64") }
