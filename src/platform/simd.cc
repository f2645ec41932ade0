#include "platform/simd.h"

/**
 * @file
 * ISA-agnostic half of the SIMD shim: runtime table dispatch, the
 * autotuner's per-ISA candidate lists, and the int8 dot-product
 * weight interleave (plain C++ — packing needs no intrinsics).
 */

namespace ngb {
namespace simd {

const SimdOps *
simdOpsFor(platform::IsaLevel level)
{
    switch (level) {
    case platform::IsaLevel::Avx512: return simdOpsAvx512();
    case platform::IsaLevel::Avx2: return simdOpsAvx2();
    case platform::IsaLevel::Neon: return simdOpsNeon();
    case platform::IsaLevel::Scalar: return simdOpsPortable();
    }
    return simdOpsPortable();
}

const std::vector<TileConfig> &
gemmTileCandidates(platform::IsaLevel level)
{
    // First entry = default when no tuning-cache entry exists yet.
    // mr must come from {1,2,4,6,8} (the instantiated panel heights),
    // nv from {1,2,4}. kc > 0 adds a k-block cache pass; every
    // candidate is bit-identical (simd.h numerics contract).
    static const std::vector<TileConfig> kAvx2 = {
        {4, 2, 0}, {6, 2, 0}, {4, 4, 0}, {2, 4, 0},
        {8, 1, 0}, {4, 2, 256}, {6, 2, 384},
    };
    static const std::vector<TileConfig> kAvx512 = {
        {4, 2, 0}, {6, 2, 0}, {8, 2, 0}, {4, 4, 0},
        {2, 4, 0}, {4, 2, 256}, {8, 2, 384},
    };
    static const std::vector<TileConfig> kNeon = {
        {4, 2, 0}, {6, 2, 0}, {4, 4, 0}, {8, 2, 0}, {4, 2, 256},
    };
    // Portable: one 16-float register per row, so {4, 1} is the 4x16
    // register tile.
    static const std::vector<TileConfig> kScalar = {
        {4, 1, 0}, {8, 1, 0}, {6, 1, 0}, {2, 2, 0}, {4, 1, 256},
    };
    switch (level) {
    case platform::IsaLevel::Avx512: return kAvx512;
    case platform::IsaLevel::Avx2: return kAvx2;
    case platform::IsaLevel::Neon: return kNeon;
    case platform::IsaLevel::Scalar: return kScalar;
    }
    return kScalar;
}

const std::vector<TileConfig> &
int8TileCandidates(platform::IsaLevel level)
{
    // Only the row block varies for the int8 kernels (columns are
    // pinned to the dot-product register shape); the portable core has
    // one fixed 4x16 tile, so there is nothing to tune.
    static const std::vector<TileConfig> kRows = {
        {4, 0, 0}, {2, 0, 0}, {8, 0, 0}};
    static const std::vector<TileConfig> kPortable = {{4, 0, 0}};
    return level == platform::IsaLevel::Scalar ? kPortable : kRows;
}

void
packDotInterleave(const int8_t *src, int8_t *dst, int64_t K, int64_t N)
{
    const int64_t K4 = K & ~int64_t(3);
    for (int64_t g = 0; g < K4 / 4; ++g)
        for (int64_t n = 0; n < N; ++n)
            for (int t = 0; t < 4; ++t)
                dst[(g * N + n) * 4 + t] = src[(4 * g + t) * N + n];
    int8_t *tail = dst + K4 * N;
    for (int64_t k = K4; k < K; ++k)
        for (int64_t n = 0; n < N; ++n)
            tail[(k - K4) * N + n] = src[k * N + n];
}

}  // namespace simd
}  // namespace ngb
