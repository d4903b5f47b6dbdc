package nn

// cpuidAVX2 reports whether the CPU and OS support AVX2 (CPUID leaf 7
// EBX[5], plus OSXSAVE/XGETBV confirmation that ymm state is preserved
// across context switches). Implemented in matmul_amd64.s.
func cpuidAVX2() bool

// mm44avx2 computes a 4-row × 4-output tile of the batched forward pass:
// for j,c in 0..3, z[j*out+c] = bias[c] + Σ_k xg[k*4+j]·w[c*kn+k], with
// each of the 16 accumulators adding its terms in strictly ascending k
// using separate (unfused) VMULPD/VADDPD — bit-identical to the scalar
// reference, four samples per vector lane. xg is the 4 input rows packed
// k-major (lane j of element k at xg[k*4+j]); w holds 4 consecutive
// output rows of kn weights each; kn ≥ 1. Implemented in matmul_amd64.s.
//
//go:noescape
func mm44avx2(z, xg, w, bias *float64, kn, out int64)

// accum4avx2 adds four samples' weight-gradient contributions into one
// gradient row: for i < n, gw[i] += d0·y0[i]; += d1·y1[i]; += d2·y2[i];
// += d3·y3[i], four cells per vector, each product a separate VMULPD and
// each sum a separate VADDPD in that sample order — bit-identical to the
// scalar loop. n is a positive multiple of 4. Implemented in
// matmul_amd64.s.
//
//go:noescape
func accum4avx2(gw, y0, y1, y2, y3 *float64, n int64, d0, d1, d2, d3 float64)

// adamAVX2 is the vector body of adam over the first n elements (a
// positive multiple of 4), four parameters per vector with the scalar
// loop's operations in its order; c1 and c2 are the constants 1−β1 and
// 1−β2, passed in already rounded. Implemented in matmul_amd64.s.
//
//go:noescape
func adamAVX2(w, grad, mo, ve *float64, n int64, lr, inv, bc1, bc2, b1, c1, b2, c2, eps float64)

// useAVX2 gates the assembly kernels; a variable (not a constant) so tests
// can force the pure-Go path on AVX2 hardware.
var useAVX2 = cpuidAVX2()

// quantDot4 computes 4 int8×int16 dot products over blocks×16 elements,
// leaving 8 partial int32 lanes per row in lanes for the caller to fold.
// Implemented in matmul_amd64.s.
//
//go:noescape
func quantDot4(w *int8, stride int64, x *int16, blocks int64, lanes *int32)
