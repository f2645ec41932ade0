#ifndef NGB_PLATFORM_SIMD_KERNELS_INL_H
#define NGB_PLATFORM_SIMD_KERNELS_INL_H

#include <cmath>
#include <cstdint>

#include "platform/simd.h"

/**
 * @file
 * The shared SIMD kernel bodies: templates over a vector-register
 * concept V, included ONLY by the per-level translation units (each
 * compiled with its own ISA flags), so one algorithm serves the
 * portable level, AVX2, AVX-512 and NEON at their native widths.
 *
 * The V concept:
 *   static constexpr int W;          // f32 lanes
 *   using R = <register type>;
 *   static R    load(const float *); // unaligned
 *   static void store(float *, R);
 *   static R    broadcast(float);
 *   static R    zero();
 *   static R    add(R, R), sub(R, R), mul(R, R), div(R, R), max(R, R);
 *   static R    fma(R a, R b, R c);  // a*b + c
 *   static float fmaScalar(float a, float b, float c);  // same, 1 lane
 *   static float reduceAdd(R);
 *
 * fma and fmaScalar must round identically: single-rounded on the
 * hardware levels (vector FMA / std::fmaf), mul-then-add on the
 * portable level (std::fmaf is a libm call at baseline flags).
 *
 * Numerics: see the contract in simd.h. Every f32 GEMM path below —
 * wide panels, single-vector columns, scalar tails — performs the
 * identical per-element sequence (k-ascending V::fma chain into one
 * accumulator, then one bias add), so results do not depend on the
 * tile configuration or on where an element falls relative to a
 * vector boundary.
 */

namespace ngb {
namespace simd {
namespace inl {

/**
 * One register panel: MR rows by NV vectors of C, accumulated over
 * k in [k0,k1). @p first zero-initializes the accumulators, otherwise
 * they resume from the partial sums a previous k-block stored in C;
 * @p last applies the bias on write-out.
 */
template <class V, int MR, int NV>
inline void
gemmPanel(const float *A, int64_t lda, const float *B, int64_t ldb,
          float *C, int64_t ldc, int64_t i, int64_t j, int64_t k0,
          int64_t k1, const float *bias, bool first, bool last)
{
    typename V::R acc[MR][NV];
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = first ? V::zero()
                              : V::load(C + (i + r) * ldc + j + v * V::W);
    for (int64_t k = k0; k < k1; ++k) {
        typename V::R bv[NV];
        for (int v = 0; v < NV; ++v)
            bv[v] = V::load(B + k * ldb + j + v * V::W);
        // Broadcasts first, then a loop of nothing but fmas: with a
        // plain-array register (the portable level) a broadcast inside
        // the fma loop keeps the accumulators in memory (~7x slower).
        typename V::R av[MR];
        for (int r = 0; r < MR; ++r)
            av[r] = V::broadcast(A[(i + r) * lda + k]);
        for (int r = 0; r < MR; ++r)
            for (int v = 0; v < NV; ++v)
                acc[r][v] = V::fma(av[r], bv[v], acc[r][v]);
    }
    if (last && bias)
        for (int v = 0; v < NV; ++v) {
            typename V::R bb = V::load(bias + j + v * V::W);
            for (int r = 0; r < MR; ++r)
                acc[r][v] = V::add(acc[r][v], bb);
        }
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            V::store(C + (i + r) * ldc + j + v * V::W, acc[r][v]);
}

/** Scalar column tail: same fma chain, one column at a time. */
template <class V, int MR>
inline void
gemmScalarCols(const float *A, int64_t lda, const float *B, int64_t ldb,
               float *C, int64_t ldc, int64_t i, int64_t j, int64_t jEnd,
               int64_t k0, int64_t k1, const float *bias, bool first,
               bool last)
{
    for (int64_t jj = j; jj < jEnd; ++jj)
        for (int r = 0; r < MR; ++r) {
            const float *a = A + (i + r) * lda;
            float acc = first ? 0.0f : C[(i + r) * ldc + jj];
            for (int64_t k = k0; k < k1; ++k)
                acc = V::fmaScalar(a[k], B[k * ldb + jj], acc);
            if (last && bias)
                acc += bias[jj];
            C[(i + r) * ldc + jj] = acc;
        }
}

/** One band of MR rows across all N columns: nv-wide panels, then
 *  single-vector panels, then the scalar tail. */
template <class V, int MR>
inline void
gemmRowBand(const float *A, int64_t lda, const float *B, int64_t ldb,
            float *C, int64_t ldc, int64_t i, int64_t N, int nv,
            int64_t k0, int64_t k1, const float *bias, bool first,
            bool last)
{
    int64_t j = 0;
    if (nv >= 4)
        for (; j + 4 * V::W <= N; j += 4 * V::W)
            gemmPanel<V, MR, 4>(A, lda, B, ldb, C, ldc, i, j, k0, k1,
                                bias, first, last);
    if (nv >= 2)
        for (; j + 2 * V::W <= N; j += 2 * V::W)
            gemmPanel<V, MR, 2>(A, lda, B, ldb, C, ldc, i, j, k0, k1,
                                bias, first, last);
    for (; j + V::W <= N; j += V::W)
        gemmPanel<V, MR, 1>(A, lda, B, ldb, C, ldc, i, j, k0, k1, bias,
                            first, last);
    gemmScalarCols<V, MR>(A, lda, B, ldb, C, ldc, i, j, N, k0, k1, bias,
                          first, last);
}

/**
 * The strided f32 GEMM driver behind SimdOps::gemmF32Strided: the
 * operands are lda/ldb/ldc-strided sub-matrices of larger arrays.
 * Per the numerics contract, strides move the pointers and never the
 * per-element k chain, so computing a macro-tile of a big GEMM through
 * this entry produces the same bits that one whole-problem gemmF32
 * call writes into that tile — the seam intra-op sharding relies on.
 */
template <class V>
void
gemmF32StridedTmpl(const float *A, int64_t lda, const float *B,
                   int64_t ldb, float *C, int64_t ldc, int64_t M,
                   int64_t K, int64_t N, const float *bias,
                   const TileConfig &tile)
{
    const int mr = tile.mr > 0 ? tile.mr : 4;
    const int nv = tile.nv > 0 ? tile.nv : 2;
    const int64_t kc = tile.kc > 0 ? tile.kc : (K > 0 ? K : 1);
    for (int64_t k0 = 0; k0 < K || (K == 0 && k0 == 0); k0 += kc) {
        const int64_t k1 = K < k0 + kc ? K : k0 + kc;
        const bool first = k0 == 0;
        const bool last = k1 == K;
        int64_t i = 0;
        switch (mr) {
        case 8:
            for (; i + 8 <= M; i += 8)
                gemmRowBand<V, 8>(A, lda, B, ldb, C, ldc, i, N, nv, k0,
                                  k1, bias, first, last);
            break;
        case 6:
            for (; i + 6 <= M; i += 6)
                gemmRowBand<V, 6>(A, lda, B, ldb, C, ldc, i, N, nv, k0,
                                  k1, bias, first, last);
            break;
        case 2:
            for (; i + 2 <= M; i += 2)
                gemmRowBand<V, 2>(A, lda, B, ldb, C, ldc, i, N, nv, k0,
                                  k1, bias, first, last);
            break;
        default:
            for (; i + 4 <= M; i += 4)
                gemmRowBand<V, 4>(A, lda, B, ldb, C, ldc, i, N, nv, k0,
                                  k1, bias, first, last);
            break;
        }
        for (; i < M; ++i)
            gemmRowBand<V, 1>(A, lda, B, ldb, C, ldc, i, N, nv, k0, k1,
                              bias, first, last);
        if (K == 0)
            break;
    }
}

/** The f32 GEMM driver behind SimdOps::gemmF32. */
template <class V>
void
gemmF32Tmpl(const float *A, const float *B, float *C, int64_t M,
            int64_t K, int64_t N, const float *bias,
            const TileConfig &tile)
{
    gemmF32StridedTmpl<V>(A, K, B, N, C, N, M, K, N, bias, tile);
}

/** relu: max(x, 0) — the same expression the scalar kernels use. */
template <class V>
void
reluTmpl(const float *x, float *out, int64_t n)
{
    const typename V::R z = V::zero();
    int64_t i = 0;
    for (; i + V::W <= n; i += V::W)
        V::store(out + i, V::max(V::load(x + i), z));
    for (; i < n; ++i)
        out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

template <class V>
void
addScalarTmpl(const float *x, float s, float *out, int64_t n)
{
    const typename V::R sv = V::broadcast(s);
    int64_t i = 0;
    for (; i + V::W <= n; i += V::W)
        V::store(out + i, V::add(V::load(x + i), sv));
    for (; i < n; ++i)
        out[i] = x[i] + s;
}

template <class V>
void
mulScalarTmpl(const float *x, float s, float *out, int64_t n)
{
    const typename V::R sv = V::broadcast(s);
    int64_t i = 0;
    for (; i + V::W <= n; i += V::W)
        V::store(out + i, V::mul(V::load(x + i), sv));
    for (; i < n; ++i)
        out[i] = x[i] * s;
}

template <class V>
void
binaryOpTmpl(int op, const float *a, const float *b, float *out,
             int64_t n)
{
    int64_t i = 0;
    switch (op) {
    case 0:
        for (; i + V::W <= n; i += V::W)
            V::store(out + i, V::add(V::load(a + i), V::load(b + i)));
        for (; i < n; ++i)
            out[i] = a[i] + b[i];
        break;
    case 1:
        for (; i + V::W <= n; i += V::W)
            V::store(out + i, V::sub(V::load(a + i), V::load(b + i)));
        for (; i < n; ++i)
            out[i] = a[i] - b[i];
        break;
    case 2:
        for (; i + V::W <= n; i += V::W)
            V::store(out + i, V::mul(V::load(a + i), V::load(b + i)));
        for (; i < n; ++i)
            out[i] = a[i] * b[i];
        break;
    default:
        for (; i + V::W <= n; i += V::W)
            V::store(out + i, V::div(V::load(a + i), V::load(b + i)));
        for (; i < n; ++i)
            out[i] = a[i] / b[i];
        break;
    }
}

/**
 * Row-wise layer norm, vector-reduced two-pass moments. The lane
 * reduction reassociates the sums (unlike the reference's scalar
 * two-pass), so this is a tolerance kernel by design.
 */
template <class V>
void
layerNormRowsTmpl(const float *x, const float *gamma, const float *beta,
                  float eps, int64_t rows, int64_t d, float *out)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float *xr = x + r * d;
        float *yr = out + r * d;
        typename V::R vs = V::zero();
        int64_t j = 0;
        for (; j + V::W <= d; j += V::W)
            vs = V::add(vs, V::load(xr + j));
        float sum = V::reduceAdd(vs);
        for (; j < d; ++j)
            sum += xr[j];
        const float mean = sum / static_cast<float>(d);
        const typename V::R vm = V::broadcast(mean);
        typename V::R v2 = V::zero();
        float s2 = 0.0f;
        j = 0;
        for (; j + V::W <= d; j += V::W) {
            typename V::R dv = V::sub(V::load(xr + j), vm);
            v2 = V::fma(dv, dv, v2);
        }
        s2 = V::reduceAdd(v2);
        for (; j < d; ++j) {
            const float dv = xr[j] - mean;
            s2 = V::fmaScalar(dv, dv, s2);
        }
        const float inv =
            1.0f / std::sqrt(s2 / static_cast<float>(d) + eps);
        const typename V::R vinv = V::broadcast(inv);
        j = 0;
        for (; j + V::W <= d; j += V::W) {
            typename V::R nv =
                V::mul(V::sub(V::load(xr + j), vm), vinv);
            V::store(yr + j, V::add(V::mul(nv, V::load(gamma + j)),
                                    V::load(beta + j)));
        }
        for (; j < d; ++j)
            yr[j] = (xr[j] - mean) * inv * gamma[j] + beta[j];
    }
}

/**
 * Widening int8 GEMM fallback shared by the non-dot-product paths:
 * exact i32 accumulation over the plain [K,N] layout, vectorization
 * left to the per-ISA widening kernels; this scalar version is the
 * correctness mirror the tests compare against.
 */
inline void
gemmI8RowMajorScalar(const int8_t *A, const int8_t *B, int32_t *C,
                     int64_t M, int64_t K, int64_t N)
{
    for (int64_t m = 0; m < M; ++m)
        for (int64_t n = 0; n < N; ++n) {
            int32_t acc = 0;
            for (int64_t k = 0; k < K; ++k)
                acc += static_cast<int32_t>(A[m * K + k]) *
                       static_cast<int32_t>(B[k * N + n]);
            C[m * N + n] = acc;
        }
}

}  // namespace inl
}  // namespace simd
}  // namespace ngb

#endif  // NGB_PLATFORM_SIMD_KERNELS_INL_H
