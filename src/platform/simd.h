#ifndef NGB_PLATFORM_SIMD_H
#define NGB_PLATFORM_SIMD_H

#include <cstdint>
#include <vector>

#include "platform/cpu_features.h"

/**
 * @file
 * The explicit-SIMD shim: one vector-register abstraction, four levels
 * behind it.
 *
 * Each level lives in its own translation unit (simd_portable.cc,
 * simd_avx2.cc, simd_avx512.cc, simd_neon.cc) compiled with that
 * level's flags only for that file; the kernel BODIES are shared
 * templates over a small vector-register concept (simd_kernels_inl.h),
 * so every level runs the same algorithm at a different width. The
 * portable level (IsaLevel::Scalar) is a 16-float plain array at
 * baseline flags and always exists; a hardware TU whose ISA the
 * compiler cannot target compiles to a stub returning nullptr, and the
 * runtime dispatcher (simdOpsFor + platform::activeIsa) clamps to what
 * is actually compiled in.
 *
 * Numerics contract (what the differential tests assert):
 *  - gemmF32 keeps ONE accumulator per output element and walks k
 *    ascending through the level's fma (vector FMA in the panels,
 *    V::fmaScalar in the tails). Results are therefore deterministic
 *    and IDENTICAL across every TileConfig the autotuner may pick and
 *    every intra-op thread count — tiling and sharding move loop
 *    boundaries, never the per-element operation sequence.
 *  - The hardware levels round each step once (fused multiply-add);
 *    the portable level multiplies then adds (two roundings, like the
 *    reference kernels). Levels therefore differ from each other and
 *    from the reference by FMA rounding: compare with closeDifference.
 *  - gemmI8 accumulates in exact i32, so VNNI, sdot, the widening
 *    paths and the portable 4x16 core all produce bit-identical
 *    accumulators to the naive int8 kernels.
 *  - relu / addScalar / mulScalar / binaryOp evaluate the same float
 *    expression per element as the reference kernels: bit-identical.
 *  - layerNormRows uses vector-reduced two-pass moments: the
 *    reduction tree differs from the reference two-pass — tolerance.
 */

namespace ngb {
namespace simd {

/**
 * One GEMM tiling choice — the autotuner's search space. @p mr output
 * rows per register panel (one of 1/2/4/6/8), @p nv accumulator
 * vectors per row (1/2/4, each SimdOps::vectorWidthF32 lanes wide),
 * @p kc k-block size (0 = unblocked). Every config computes
 * bit-identical results (see the numerics contract above); they
 * differ only in register pressure and cache behaviour, which is why
 * picking one is a pure timing decision the tuning cache can replay.
 */
struct TileConfig {
    int mr = 4;
    int nv = 2;
    int64_t kc = 0;
};

/**
 * The per-level kernel table. Raw-pointer kernels on contiguous F32/I8
 * data; the simd backend (src/ops/simd_backend.cc) owns tensor
 * plumbing, layout packing, and fallback decisions.
 */
struct SimdOps {
    const char *name;              ///< "scalar" / "avx2" / "avx512" /
                                   ///< "neon" (the isaName)
    platform::IsaLevel level;
    int vectorWidthF32;            ///< f32 lanes per register
    bool int8Dot;                  ///< gemmI8 wants the dot-interleaved
                                   ///< B layout (VNNI / sdot active)

    /** C[M,N] = A[M,K] * B[K,N] (+ bias[N] when non-null). */
    void (*gemmF32)(const float *A, const float *B, float *C,
                    int64_t M, int64_t K, int64_t N, const float *bias,
                    const TileConfig &tile);

    /**
     * gemmF32 over lda/ldb/ldc-strided sub-matrices. The per-element
     * operation sequence is identical to gemmF32 (strides move
     * pointers, never the k chain), so a macro-tile decomposition of a
     * big GEMM through this entry — the intra-op sharding path — is
     * bit-identical to one whole-problem gemmF32 call.
     */
    void (*gemmF32Strided)(const float *A, int64_t lda, const float *B,
                           int64_t ldb, float *C, int64_t ldc,
                           int64_t M, int64_t K, int64_t N,
                           const float *bias, const TileConfig &tile);

    /**
     * C[M,N] (i32) = A[M,K] (i8) * B (i8). B layout: the dot
     * interleave from packDotInterleave when int8Dot, else plain
     * row-major [K,N]. Only tile.mr participates in tuning here.
     */
    void (*gemmI8)(const int8_t *A, const int8_t *B, int32_t *C,
                   int64_t M, int64_t K, int64_t N,
                   const TileConfig &tile);

    void (*relu)(const float *x, float *out, int64_t n);
    void (*addScalar)(const float *x, float s, float *out, int64_t n);
    void (*mulScalar)(const float *x, float s, float *out, int64_t n);

    /** op: 0 add, 1 sub, 2 mul, 3 div; same-shape contiguous. */
    void (*binaryOp)(int op, const float *a, const float *b, float *out,
                     int64_t n);

    /** Row-wise layer norm over the last dim @p d with affine. */
    void (*layerNormRows)(const float *x, const float *gamma,
                          const float *beta, float eps, int64_t rows,
                          int64_t d, float *out);
};

/** The portable table (baseline flags; never null). */
const SimdOps *simdOpsPortable();

/** Per-ISA tables; nullptr when that TU was compiled without its ISA
 *  (missing compiler support) — dispatch clamps around the gap. */
const SimdOps *simdOpsAvx2();
const SimdOps *simdOpsAvx512();
const SimdOps *simdOpsNeon();

/** Table for @p level: the portable table for Scalar, nullptr for a
 *  hardware level whose TU was not compiled in. */
const SimdOps *simdOpsFor(platform::IsaLevel level);

/**
 * The tile configurations the autotuner searches for f32 GEMM at
 * @p level (first entry is the no-cache default). All produce
 * identical bits; see TileConfig.
 */
const std::vector<TileConfig> &gemmTileCandidates(platform::IsaLevel level);

/** Row-block candidates for the int8 GEMM (only mr varies). */
const std::vector<TileConfig> &int8TileCandidates(platform::IsaLevel level);

/**
 * Pack a row-major [K,N] int8 weight into the 4-deep dot-product
 * interleave the VNNI/sdot kernels stream: groups of 4 consecutive k
 * rows become [N][4] panels (so one 32-bit lane load feeds one
 * dot-product instruction), laid out [K/4][N][4]; the K%4 tail rows
 * follow in plain [tail][N] row-major. @p dst must hold K*N bytes.
 */
void packDotInterleave(const int8_t *src, int8_t *dst, int64_t K,
                       int64_t N);

}  // namespace simd
}  // namespace ngb

#endif  // NGB_PLATFORM_SIMD_H
