//go:build !amd64

package nn

// Off amd64 there is no vector kernel: every product takes the portable
// tile, every row operation its Go loop and every activation its scalar
// loop.
const (
	hasAVX2   = false
	hasAVX512 = false
)

// actLanes is 0: no activation kernel. It is a variable only so that the
// tests' width cap compiles on every architecture.
var actLanes = 0

func gemmNTAVX512(a, bt, c []float64, m, k, n int) { panic("nn: AVX-512 kernel called off amd64") }

func gemmNTAVX2(a, bt, c []float64, m, k, n, j0 int) { panic("nn: AVX2 kernel called off amd64") }

func sigmoidVecAVX2(dst, x []float64) int { panic("nn: AVX2 kernel called off amd64") }

func tanhVecAVX2(dst, x []float64) int { panic("nn: AVX2 kernel called off amd64") }

func sigmoidVecAVX512(dst, x []float64) int { panic("nn: AVX-512 kernel called off amd64") }

func tanhVecAVX512(dst, x []float64) int { panic("nn: AVX-512 kernel called off amd64") }

func sigmoidAdd3AVX512(dst, a, b, c, m []float64) int {
	panic("nn: AVX-512 kernel called off amd64")
}

func tanhAddLerpAVX512(dst, x, bias, z, h []float64) int {
	panic("nn: AVX-512 kernel called off amd64")
}

func addToAVX2(dst, src []float64) { panic("nn: AVX2 kernel called off amd64") }

func add3AVX2(dst, a, b, c []float64) { panic("nn: AVX2 kernel called off amd64") }

func hadamardAVX2(dst, a, b []float64) { panic("nn: AVX2 kernel called off amd64") }

func lerpAVX2(dst, z, a, b []float64) { panic("nn: AVX2 kernel called off amd64") }
