//go:build !amd64

package nn

// The vector kernels are only reachable when useAVX2 is true, which never
// holds off amd64.
func gemm4x8avx2(c, init, a, b *float64, mask *int64, kn, ldc, ldi, ar, ak, bk int64) {
	panic("nn: gemm4x8avx2 called without AVX2 support")
}

func gemm1x32gather(c, init, b, x *float64, off *int64, nnz int64, mask *int64) {
	panic("nn: gemm1x32gather called without AVX2 support")
}

func adamAVX2(w, grad, mo, ve *float64, n int64, lr, inv, bc1, bc2, b1, c1, b2, c2, eps float64) {
	panic("nn: adamAVX2 called without AVX2 support")
}

var useAVX2 = false

func quantDot4(w *int8, stride int64, x *int16, blocks int64, lanes *int32) {
	panic("nn: quantDot4 called without AVX2 support")
}
