#include "platform/simd.h"

/**
 * @file
 * AVX-512 instantiation of the shared SIMD kernels (16-wide f32) plus
 * two int8 GEMMs: the VNNI dot-product kernel (vpdpbusd over the
 * 4-deep interleaved weight layout) and a widening fallback for
 * AVX-512 hardware without VNNI. Compiled with the -mavx512* flags
 * via per-source properties in CMakeLists.txt.
 *
 * vpdpbusd is unsigned x signed: the kernel biases each activation
 * byte by +128 (XOR 0x80) and subtracts the per-column compensation
 * 128 * sum_k B[k][n] afterwards — i32 arithmetic throughout, so the
 * result is exactly the signed i8 x i8 accumulator every other int8
 * kernel produces (the PR 8 bit-identity contract holds on VNNI).
 */

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <cstring>

#include "platform/simd_kernels_inl.h"

namespace ngb {
namespace simd {
namespace {

struct V16 {
    static constexpr int W = 16;
    using R = __m512;
    static R load(const float *p) { return _mm512_loadu_ps(p); }
    static void store(float *p, R v) { _mm512_storeu_ps(p, v); }
    static R broadcast(float v) { return _mm512_set1_ps(v); }
    static R zero() { return _mm512_setzero_ps(); }
    static R add(R a, R b) { return _mm512_add_ps(a, b); }
    static R sub(R a, R b) { return _mm512_sub_ps(a, b); }
    static R mul(R a, R b) { return _mm512_mul_ps(a, b); }
    static R div(R a, R b) { return _mm512_div_ps(a, b); }
    static R max(R a, R b) { return _mm512_max_ps(a, b); }
    static R fma(R a, R b, R c) { return _mm512_fmadd_ps(a, b, c); }
    static float fmaScalar(float a, float b, float c)
    {
        return std::fmaf(a, b, c);
    }
    static float reduceAdd(R v) { return _mm512_reduce_add_ps(v); }
};

/** Scalar reference walk of the dot-interleaved layout (N tails). */
int32_t
dotInterleavedScalar(const int8_t *A, const int8_t *B,
                     const int8_t *Btail, int64_t m, int64_t j,
                     int64_t K, int64_t K4, int64_t N)
{
    int32_t acc = 0;
    for (int64_t g = 0; g < K4 / 4; ++g)
        for (int t = 0; t < 4; ++t)
            acc += static_cast<int32_t>(A[m * K + 4 * g + t]) *
                   static_cast<int32_t>(B[(g * N + j) * 4 + t]);
    for (int64_t k = K4; k < K; ++k)
        acc += static_cast<int32_t>(A[m * K + k]) *
               static_cast<int32_t>(Btail[(k - K4) * N + j]);
    return acc;
}

#ifdef __AVX512VNNI__

/** VNNI int8 GEMM over the packDotInterleave layout. */
void
gemmI8Vnni(const int8_t *A, const int8_t *B, int32_t *C, int64_t M,
           int64_t K, int64_t N, const TileConfig &tile)
{
    const int mr0 = tile.mr > 0 ? (tile.mr < 8 ? tile.mr : 8) : 4;
    const int64_t K4 = K & ~int64_t(3);
    const int64_t groups = K4 / 4;
    const int8_t *Btail = B + K4 * N;
    const __m512i ones = _mm512_set1_epi8(1);
    int64_t j = 0;
    for (; j + 16 <= N; j += 16) {
        // comp[n] = 128 * sum_{k<K4} B[k][n]: undoes the +128 bias the
        // activation bytes carry through the unsigned dpbusd operand.
        __m512i comp = _mm512_setzero_si512();
        for (int64_t g = 0; g < groups; ++g)
            comp = _mm512_dpbusd_epi32(
                comp, ones,
                _mm512_loadu_si512(B + (g * N + j) * 4));
        comp = _mm512_slli_epi32(comp, 7);
        int64_t m0 = 0;
        while (m0 < M) {
            const int rows = static_cast<int>(
                M - m0 < static_cast<int64_t>(mr0) ? M - m0 : mr0);
            __m512i acc[8];
            for (int r = 0; r < rows; ++r)
                acc[r] = _mm512_setzero_si512();
            for (int64_t g = 0; g < groups; ++g) {
                const __m512i bq =
                    _mm512_loadu_si512(B + (g * N + j) * 4);
                for (int r = 0; r < rows; ++r) {
                    uint32_t aw;
                    std::memcpy(&aw, A + (m0 + r) * K + g * 4, 4);
                    const __m512i av = _mm512_set1_epi32(
                        static_cast<int32_t>(aw ^ 0x80808080u));
                    acc[r] = _mm512_dpbusd_epi32(acc[r], av, bq);
                }
            }
            for (int r = 0; r < rows; ++r)
                acc[r] = _mm512_sub_epi32(acc[r], comp);
            for (int64_t k = K4; k < K; ++k) {
                const __m512i bv =
                    _mm512_cvtepi8_epi32(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(
                            Btail + (k - K4) * N + j)));
                for (int r = 0; r < rows; ++r) {
                    const __m512i av = _mm512_set1_epi32(
                        static_cast<int32_t>(A[(m0 + r) * K + k]));
                    acc[r] = _mm512_add_epi32(
                        acc[r], _mm512_mullo_epi32(av, bv));
                }
            }
            for (int r = 0; r < rows; ++r)
                _mm512_storeu_si512(C + (m0 + r) * N + j, acc[r]);
            m0 += rows;
        }
    }
    for (; j < N; ++j)
        for (int64_t m = 0; m < M; ++m)
            C[m * N + j] =
                dotInterleavedScalar(A, B, Btail, m, j, K, K4, N);
}

#endif  // __AVX512VNNI__

/** Widening int8 GEMM over plain [K,N] (AVX-512 without VNNI). */
void
gemmI8Widen512(const int8_t *A, const int8_t *B, int32_t *C, int64_t M,
               int64_t K, int64_t N, const TileConfig &tile)
{
    const int mr = tile.mr > 0 ? (tile.mr < 8 ? tile.mr : 8) : 4;
    int64_t m0 = 0;
    while (m0 < M) {
        const int rows = static_cast<int>(
            M - m0 < static_cast<int64_t>(mr) ? M - m0 : mr);
        int64_t j = 0;
        for (; j + 16 <= N; j += 16) {
            __m512i acc[8];
            for (int r = 0; r < rows; ++r)
                acc[r] = _mm512_setzero_si512();
            for (int64_t k = 0; k < K; ++k) {
                const __m512i bv =
                    _mm512_cvtepi8_epi32(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(B + k * N +
                                                          j)));
                for (int r = 0; r < rows; ++r) {
                    const __m512i av = _mm512_set1_epi32(
                        static_cast<int32_t>(A[(m0 + r) * K + k]));
                    acc[r] = _mm512_add_epi32(
                        acc[r], _mm512_mullo_epi32(av, bv));
                }
            }
            for (int r = 0; r < rows; ++r)
                _mm512_storeu_si512(C + (m0 + r) * N + j, acc[r]);
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

const SimdOps kOpsPlain = {
    "avx512",
    platform::IsaLevel::Avx512,
    V16::W,
    false,
    &inl::gemmF32Tmpl<V16>,
    &inl::gemmF32StridedTmpl<V16>,
    &gemmI8Widen512,
    &inl::reluTmpl<V16>,
    &inl::addScalarTmpl<V16>,
    &inl::mulScalarTmpl<V16>,
    &inl::binaryOpTmpl<V16>,
    &inl::layerNormRowsTmpl<V16>,
};

#ifdef __AVX512VNNI__
const SimdOps kOpsVnni = {
    "avx512",
    platform::IsaLevel::Avx512,
    V16::W,
    true,
    &inl::gemmF32Tmpl<V16>,
    &inl::gemmF32StridedTmpl<V16>,
    &gemmI8Vnni,
    &inl::reluTmpl<V16>,
    &inl::addScalarTmpl<V16>,
    &inl::mulScalarTmpl<V16>,
    &inl::binaryOpTmpl<V16>,
    &inl::layerNormRowsTmpl<V16>,
};
#endif

}  // namespace

const SimdOps *
simdOpsAvx512()
{
#ifdef __AVX512VNNI__
    if (platform::hasVnni())
        return &kOpsVnni;
#endif
    return &kOpsPlain;
}

}  // namespace simd
}  // namespace ngb

#else  // AVX-512 not compiled in

namespace ngb {
namespace simd {

const SimdOps *
simdOpsAvx512()
{
    return nullptr;
}

}  // namespace simd
}  // namespace ngb

#endif
