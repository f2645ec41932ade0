#include "platform/simd.h"

/**
 * @file
 * aarch64 NEON (ASIMD) instantiation of the shared SIMD kernels
 * (4-wide f32) plus int8 GEMM: the sdot kernel over the 4-deep
 * interleaved weight layout when the build and CPU have DOTPROD
 * (signed x signed, so no bias/compensation is needed), and a
 * widening vmlal fallback over plain [K,N] otherwise. All exact i32
 * accumulation — the PR 8 bit-identity contract holds.
 */

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cstring>

#include "platform/simd_kernels_inl.h"

namespace ngb {
namespace simd {
namespace {

struct V4 {
    static constexpr int W = 4;
    using R = float32x4_t;
    static R load(const float *p) { return vld1q_f32(p); }
    static void store(float *p, R v) { vst1q_f32(p, v); }
    static R broadcast(float v) { return vdupq_n_f32(v); }
    static R zero() { return vdupq_n_f32(0.0f); }
    static R add(R a, R b) { return vaddq_f32(a, b); }
    static R sub(R a, R b) { return vsubq_f32(a, b); }
    static R mul(R a, R b) { return vmulq_f32(a, b); }
    static R div(R a, R b) { return vdivq_f32(a, b); }
    static R max(R a, R b) { return vmaxq_f32(a, b); }
    static R fma(R a, R b, R c) { return vfmaq_f32(c, a, b); }
    static float fmaScalar(float a, float b, float c)
    {
        return std::fmaf(a, b, c);
    }
    static float reduceAdd(R v) { return vaddvq_f32(v); }
};

/** Widening int8 GEMM over plain [K,N]: 8 columns per iteration. */
void
gemmI8Widen(const int8_t *A, const int8_t *B, int32_t *C, int64_t M,
            int64_t K, int64_t N, const TileConfig &tile)
{
    const int mr = tile.mr > 0 ? (tile.mr < 8 ? tile.mr : 8) : 4;
    int64_t m0 = 0;
    while (m0 < M) {
        const int rows = static_cast<int>(
            M - m0 < static_cast<int64_t>(mr) ? M - m0 : mr);
        int64_t j = 0;
        for (; j + 8 <= N; j += 8) {
            int32x4_t lo[8], hi[8];
            for (int r = 0; r < rows; ++r) {
                lo[r] = vdupq_n_s32(0);
                hi[r] = vdupq_n_s32(0);
            }
            for (int64_t k = 0; k < K; ++k) {
                const int16x8_t b16 =
                    vmovl_s8(vld1_s8(B + k * N + j));
                const int32x4_t blo = vmovl_s16(vget_low_s16(b16));
                const int32x4_t bhi = vmovl_s16(vget_high_s16(b16));
                for (int r = 0; r < rows; ++r) {
                    const int32_t a =
                        static_cast<int32_t>(A[(m0 + r) * K + k]);
                    lo[r] = vmlaq_n_s32(lo[r], blo, a);
                    hi[r] = vmlaq_n_s32(hi[r], bhi, a);
                }
            }
            for (int r = 0; r < rows; ++r) {
                vst1q_s32(C + (m0 + r) * N + j, lo[r]);
                vst1q_s32(C + (m0 + r) * N + j + 4, hi[r]);
            }
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

#ifdef __ARM_FEATURE_DOTPROD

/** sdot int8 GEMM over the packDotInterleave layout. */
void
gemmI8Dot(const int8_t *A, const int8_t *B, int32_t *C, int64_t M,
          int64_t K, int64_t N, const TileConfig &tile)
{
    const int mr = tile.mr > 0 ? (tile.mr < 8 ? tile.mr : 8) : 4;
    const int64_t K4 = K & ~int64_t(3);
    const int64_t groups = K4 / 4;
    const int8_t *Btail = B + K4 * N;
    int64_t m0 = 0;
    while (m0 < M) {
        const int rows = static_cast<int>(
            M - m0 < static_cast<int64_t>(mr) ? M - m0 : mr);
        int64_t j = 0;
        for (; j + 4 <= N; j += 4) {
            int32x4_t acc[8];
            for (int r = 0; r < rows; ++r)
                acc[r] = vdupq_n_s32(0);
            for (int64_t g = 0; g < groups; ++g) {
                const int8x16_t bq =
                    vld1q_s8(B + (g * N + j) * 4);
                for (int r = 0; r < rows; ++r) {
                    uint32_t aw;
                    std::memcpy(&aw, A + (m0 + r) * K + g * 4, 4);
                    const int8x16_t av = vreinterpretq_s8_u32(
                        vdupq_n_u32(aw));
                    acc[r] = vdotq_s32(acc[r], av, bq);
                }
            }
            for (int64_t k = K4; k < K; ++k) {
                const int16x4_t b16 = vget_low_s16(vmovl_s8(
                    vld1_s8(Btail + (k - K4) * N + j)));
                const int32x4_t bv = vmovl_s16(b16);
                for (int r = 0; r < rows; ++r)
                    acc[r] = vmlaq_n_s32(
                        acc[r], bv,
                        static_cast<int32_t>(A[(m0 + r) * K + k]));
            }
            for (int r = 0; r < rows; ++r)
                vst1q_s32(C + (m0 + r) * N + j, acc[r]);
        }
        for (; j < N; ++j)
            for (int r = 0; r < rows; ++r) {
                int32_t acc = 0;
                for (int64_t g = 0; g < groups; ++g)
                    for (int t = 0; t < 4; ++t)
                        acc += static_cast<int32_t>(
                                   A[(m0 + r) * K + 4 * g + t]) *
                               static_cast<int32_t>(
                                   B[(g * N + j) * 4 + t]);
                for (int64_t k = K4; k < K; ++k)
                    acc += static_cast<int32_t>(A[(m0 + r) * K + k]) *
                           static_cast<int32_t>(
                               Btail[(k - K4) * N + j]);
                C[(m0 + r) * N + j] = acc;
            }
        m0 += rows;
    }
}

#endif  // __ARM_FEATURE_DOTPROD

const SimdOps kOpsWiden = {
    "neon",
    platform::IsaLevel::Neon,
    V4::W,
    false,
    &inl::gemmF32Tmpl<V4>,
    &inl::gemmF32StridedTmpl<V4>,
    &gemmI8Widen,
    &inl::reluTmpl<V4>,
    &inl::addScalarTmpl<V4>,
    &inl::mulScalarTmpl<V4>,
    &inl::binaryOpTmpl<V4>,
    &inl::layerNormRowsTmpl<V4>,
};

#ifdef __ARM_FEATURE_DOTPROD
const SimdOps kOpsDot = {
    "neon",
    platform::IsaLevel::Neon,
    V4::W,
    true,
    &inl::gemmF32Tmpl<V4>,
    &inl::gemmF32StridedTmpl<V4>,
    &gemmI8Dot,
    &inl::reluTmpl<V4>,
    &inl::addScalarTmpl<V4>,
    &inl::mulScalarTmpl<V4>,
    &inl::binaryOpTmpl<V4>,
    &inl::layerNormRowsTmpl<V4>,
};
#endif

}  // namespace

const SimdOps *
simdOpsNeon()
{
#ifdef __ARM_FEATURE_DOTPROD
    if (platform::hasDotprod())
        return &kOpsDot;
#endif
    return &kOpsWiden;
}

}  // namespace simd
}  // namespace ngb

#else  // not aarch64 NEON

namespace ngb {
namespace simd {

const SimdOps *
simdOpsNeon()
{
    return nullptr;
}

}  // namespace simd
}  // namespace ngb

#endif
