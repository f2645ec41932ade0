#ifndef NGB_OPS_SIMD_BACKEND_H
#define NGB_OPS_SIMD_BACKEND_H

#include "ops/backend.h"
#include "ops/scalar_ops.h"
#include "platform/cpu_features.h"
#include "platform/simd.h"

/**
 * @file
 * The "simd" backend: the fast kernel tier. Explicit-SIMD kernels
 * (src/platform/simd.h) behind the Backend API, dispatched by runtime
 * CPU detection and tile-tuned through the persistent TuningCache.
 *
 * Every dispatch level registers the same kernel set, because every
 * level — the portable one included (--isa scalar) — has a real
 * kernel table: the GEMM family, layer norm, batch norm, last-dim
 * softmax, the element-wise and activation sweeps, executable int8,
 * weight-only int8 Linear and fused groups. Everything else (conv,
 * pooling, layout ops, ...) falls through the chain to reference.
 */

namespace ngb {

class ParallelRegion;

/**
 * The process "simd" backend, built once at the dispatch level
 * platform::activeIsa() reports on first use — set --isa / $NGB_ISA
 * before first kernel dispatch (the CLI applies --isa while parsing).
 */
const Backend &simdBackend();

/**
 * A simd backend pinned to @p level regardless of the process active
 * ISA (clamped to what is compiled in/supported, like dispatch is) —
 * the per-level differential tests build one per supported level in a
 * single process. Falls back to reference exactly like simdBackend().
 */
Backend makeSimdBackend(platform::IsaLevel level);

namespace kernels {
namespace sd {

/**
 * Free-function entries at the process-active dispatch level, for the
 * micro-bench and tests. GEMM entries tune through
 * TuningCache::process() and take an optional ParallelRegion: null
 * runs the serial kernels, a region shards macro-tiles across its
 * workers (bit-identical either way — the simd.h numerics contract).
 * Inputs the vector kernels cannot take (non-contiguous, non-F32,
 * broadcasting, non-last-dim softmax) run the reference kernel.
 */
Tensor matmul(const Tensor &a, const Tensor &b, Tensor dst = {},
              const ParallelRegion *par = nullptr);
Tensor linearPacked(const Tensor &x, const Tensor &wt, const Tensor &b,
                    Tensor dst = {}, const ParallelRegion *par = nullptr);
Tensor bmm(const Tensor &a, const Tensor &b, Tensor dst = {},
           const ParallelRegion *par = nullptr);
Tensor layerNorm(const Tensor &x, const Tensor &gamma,
                 const Tensor &beta, float eps, Tensor dst = {});
Tensor batchNorm2d(const Tensor &x, const Tensor &gamma,
                   const Tensor &beta, const Tensor &mean,
                   const Tensor &var, float eps, Tensor dst = {});
Tensor softmax(const Tensor &x, int dim, Tensor dst = {});
Tensor relu(const Tensor &x, Tensor dst = {});
Tensor add(const Tensor &a, const Tensor &b, Tensor dst = {});
Tensor sub(const Tensor &a, const Tensor &b, Tensor dst = {});
Tensor mul(const Tensor &a, const Tensor &b, Tensor dst = {});
Tensor div(const Tensor &a, const Tensor &b, Tensor dst = {});
Tensor addScalar(const Tensor &x, float s, Tensor dst = {});
Tensor mulScalar(const Tensor &x, float s, Tensor dst = {});

/** One point-wise stage as a standalone sweep (gelu, silu, sigmoid,
 *  tanh, exp, and the vector relu / add-scalar / mul-scalar): the same
 *  per-element expression the fused epilogues apply. */
Tensor unary(const scalar::UnaryStage &stage, const Tensor &x,
             Tensor dst = {});

/** matmul with an explicit tile (no tuning) — the bit-identity-
 *  across-candidates test hook. */
Tensor matmulTiled(const Tensor &a, const Tensor &b,
                   const simd::TileConfig &tile, Tensor dst = {});

/**
 * Pack a [N,K] linear weight into the [K,N] row-major layout the GEMM
 * streams (blocked raw-pointer transpose). Weights are immutable, so
 * the backend memoizes this per node via ParamStore::derived and
 * linearPacked consumes the packed operand directly.
 */
Tensor packWeightTranspose(const Tensor &w);

/**
 * Re-pack a [K,N] int8 weight (quant::packWeightInt8 layout) into
 * whatever layout the active level's int8 GEMM streams: the 4-deep
 * dot interleave when the level has a dot-product unit, else the
 * [K,N] weight itself. Pair with int8LinearRequant below.
 */
Tensor packInt8Weight(const Tensor &wtq);

/** Int8 linear with the requantize epilogue over a packInt8Weight-
 *  packed operand; bit-identical to qnt::int8LinearRequant. */
Tensor int8LinearRequant(const Tensor &xq, float xScale,
                         const Tensor &wPacked, const Tensor &wScales,
                         const Tensor &bias, Tensor dst = {},
                         const ParallelRegion *par = nullptr);

// ----- level-explicit entries behind the fused-group kernel ----------------
//
// Each takes the backend's own kernel table and a point-wise epilogue:
// the stages run over every finished output macro-tile inside the
// shard that produced it, right after the bias, so a fused group is
// bit-identical to the plain GEMM followed by the matching sweeps.

/** linearPacked() with @p stages in the epilogue. */
Tensor linearPackedEpi(const simd::SimdOps &ops, const Tensor &x,
                       const Tensor &wt, const Tensor &b,
                       const scalar::UnaryStage *stages, size_t nStages,
                       Tensor dst, const ParallelRegion *par);

/**
 * 2-D convolution (NCHW) as im2col into the sharded simd GEMM, with the
 * filter bias and @p stages in the epilogue — the kernel behind fused
 * Conv+BN(+act) groups, whose BN affine the caller pre-merges into
 * @p w / @p b. Matches the reference conv2d to float tolerance.
 */
Tensor conv2dEpi(const simd::SimdOps &ops, const Tensor &x,
                 const Tensor &w, const Tensor &b, int stride,
                 int padding, int groups, const scalar::UnaryStage *stages,
                 size_t nStages, Tensor dst, const ParallelRegion *par);

/** int8LinearRequant() with @p stages in the epilogue. */
Tensor int8LinearRequantEpi(const simd::SimdOps &ops, const Tensor &xq,
                            float xScale, const Tensor &wPacked,
                            const Tensor &wScales, const Tensor &bias,
                            const scalar::UnaryStage *stages,
                            size_t nStages, Tensor dst,
                            const ParallelRegion *par);

/** Executable Int8Linear node @p n's weight in @p ops' layout,
 *  memoized in @p params. */
const Tensor &int8Weight(const simd::SimdOps &ops, const Node &n,
                         ParamStore &params);

}  // namespace sd
}  // namespace kernels
}  // namespace ngb

#endif  // NGB_OPS_SIMD_BACKEND_H
