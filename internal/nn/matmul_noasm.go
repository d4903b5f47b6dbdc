//go:build !amd64

package nn

// The vector kernels are only reachable when useAVX2 is true, which never
// holds off amd64.
func mm44avx2(z, xg, w, bias *float64, kn, out int64) {
	panic("nn: mm44avx2 called without AVX2 support")
}

func accum4avx2(gw, y0, y1, y2, y3 *float64, n int64, d0, d1, d2, d3 float64) {
	panic("nn: accum4avx2 called without AVX2 support")
}

func adamAVX2(w, grad, mo, ve *float64, n int64, lr, inv, bc1, bc2, b1, c1, b2, c2, eps float64) {
	panic("nn: adamAVX2 called without AVX2 support")
}

var useAVX2 = false

func quantDot4(w *int8, stride int64, x *int16, blocks int64, lanes *int32) {
	panic("nn: quantDot4 called without AVX2 support")
}
