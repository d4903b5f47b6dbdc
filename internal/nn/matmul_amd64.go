package nn

// cpuidAVX2 reports whether the CPU and OS support AVX2 (CPUID leaf 7
// EBX[5], plus OSXSAVE/XGETBV confirmation that ymm state is preserved
// across context switches). Implemented in matmul_amd64.s.
func cpuidAVX2() bool

// gemm4x8avx2 computes a 4-row × 8-column tile of C = I + A·B:
// for r < 4 and the columns o < 8 whose mask lane is set,
// c[r*ldc+o] = init[r*ldi+o] + Σ_{k<kn} a[r*ar+k*ak]·b[k*bk+o], each
// accumulator one vector lane that adds its terms in strictly ascending k
// with separate (unfused) VMULPD/VADDPD — bit-identical to the scalar
// loop. mask points at 8 lane masks (all ones or zero); masked-off
// columns of c and init are neither read nor written, but all 8 columns
// of each B row are read. Strides are in elements; kn ≥ 1. Implemented
// in matmul_amd64.s.
//
//go:noescape
func gemm4x8avx2(c, init, a, b *float64, mask *int64, kn, ldc, ldi, ar, ak, bk int64)

// gemm1x32gather is the 1-row path's strip of the same product over a
// compacted A row: for the columns o < 32 whose mask lane is set,
// c[o] = init[o] + Σ_{j<nnz} x[j]·b[off[j]/8+o], where off[j] is the byte
// offset of the B row that x[j] multiplies. Each lane adds its terms in
// list order with separate VMULPD/VADDPD. mask points at 32 lane masks;
// masked-off columns of c and init are neither read nor written, but all
// 32 columns of each listed B row are read (16 when lane 16 is clear,
// and the strip then runs on half its accumulators). nnz may be 0
// (c = init). Implemented in matmul_amd64.s.
//
//go:noescape
func gemm1x32gather(c, init, b, x *float64, off *int64, nnz int64, mask *int64)

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
