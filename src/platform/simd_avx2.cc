#include "platform/simd.h"

/**
 * @file
 * AVX2+FMA instantiation of the shared SIMD kernels (8-wide f32) plus
 * a widening int8 GEMM (i8 -> i32 via cvtepi8_epi32 + mullo, exact).
 * Compiled with -mavx2 -mfma via per-source flags in CMakeLists.txt;
 * without them this TU is the nullptr stub and dispatch clamps down.
 */

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "platform/simd_kernels_inl.h"

namespace ngb {
namespace simd {
namespace {

struct V8 {
    static constexpr int W = 8;
    using R = __m256;
    static R load(const float *p) { return _mm256_loadu_ps(p); }
    static void store(float *p, R v) { _mm256_storeu_ps(p, v); }
    static R broadcast(float v) { return _mm256_set1_ps(v); }
    static R zero() { return _mm256_setzero_ps(); }
    static R add(R a, R b) { return _mm256_add_ps(a, b); }
    static R sub(R a, R b) { return _mm256_sub_ps(a, b); }
    static R mul(R a, R b) { return _mm256_mul_ps(a, b); }
    static R div(R a, R b) { return _mm256_div_ps(a, b); }
    static R max(R a, R b) { return _mm256_max_ps(a, b); }
    static R fma(R a, R b, R c) { return _mm256_fmadd_ps(a, b, c); }
    static float fmaScalar(float a, float b, float c)
    {
        return std::fmaf(a, b, c);
    }
    static float reduceAdd(R v)
    {
        __m128 lo = _mm256_castps256_ps128(v);
        __m128 hi = _mm256_extractf128_ps(v, 1);
        __m128 s = _mm_add_ps(lo, hi);
        s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        return _mm_cvtss_f32(s);
    }
};

/**
 * Widening int8 GEMM over the plain [K,N] layout: 8 columns per
 * iteration, broadcast-A times sign-extended B, exact i32 adds — the
 * same accumulators as the scalar int8 kernels in any order.
 */
void
gemmI8Avx2(const int8_t *A, const int8_t *B, int32_t *C, int64_t M,
           int64_t K, int64_t N, const TileConfig &tile)
{
    const int mr = tile.mr > 0 ? tile.mr : 4;
    int64_t m0 = 0;
    while (m0 < M) {
        const int rows = static_cast<int>(
            M - m0 < static_cast<int64_t>(mr) ? M - m0 : mr);
        int64_t j = 0;
        for (; j + 8 <= N; j += 8) {
            __m256i acc[8];
            for (int r = 0; r < rows; ++r)
                acc[r] = _mm256_setzero_si256();
            for (int64_t k = 0; k < K; ++k) {
                __m128i b8 = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(B + k * N + j));
                __m256i bv = _mm256_cvtepi8_epi32(b8);
                for (int r = 0; r < rows; ++r) {
                    __m256i av = _mm256_set1_epi32(
                        static_cast<int32_t>(A[(m0 + r) * K + k]));
                    acc[r] = _mm256_add_epi32(
                        acc[r], _mm256_mullo_epi32(av, bv));
                }
            }
            for (int r = 0; r < rows; ++r)
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(C + (m0 + r) * N + j),
                    acc[r]);
        }
        for (; j < N; ++j)
            for (int r = 0; r < rows; ++r) {
                int32_t acc = 0;
                for (int64_t k = 0; k < K; ++k)
                    acc += static_cast<int32_t>(A[(m0 + r) * K + k]) *
                           static_cast<int32_t>(B[k * N + j]);
                C[(m0 + r) * N + j] = acc;
            }
        m0 += rows;
    }
}

const SimdOps kOpsAvx2 = {
    "avx2",
    platform::IsaLevel::Avx2,
    V8::W,
    false,
    &inl::gemmF32Tmpl<V8>,
    &inl::gemmF32StridedTmpl<V8>,
    &gemmI8Avx2,
    &inl::reluTmpl<V8>,
    &inl::addScalarTmpl<V8>,
    &inl::mulScalarTmpl<V8>,
    &inl::binaryOpTmpl<V8>,
    &inl::layerNormRowsTmpl<V8>,
};

}  // namespace

const SimdOps *
simdOpsAvx2()
{
    return &kOpsAvx2;
}

}  // namespace simd
}  // namespace ngb

#else  // !(__AVX2__ && __FMA__)

namespace ngb {
namespace simd {

const SimdOps *
simdOpsAvx2()
{
    return nullptr;
}

}  // namespace simd
}  // namespace ngb

#endif
