#ifndef NGB_QUANT_QUANT_KERNELS_H
#define NGB_QUANT_QUANT_KERNELS_H

#include <cmath>
#include <cstdint>
#include <utility>

#include "ops/scalar_ops.h"
#include "tensor/tensor.h"

/**
 * @file
 * Executable int8 kernels: the naive i8 x i8 -> i32 reference GEMMs,
 * the dynamic activation quantization and granular requantize kernels
 * the unfused Q -> Int8Linear -> DQ pipeline runs, and the weight-only
 * linears. The fast int8 GEMM is the simd backend's gemmI8.
 *
 * Bit-identity contract: i32 accumulation is exact (no rounding), so
 * every int8 GEMM (naive here, any simd level) produces the SAME
 * accumulators in any summation order; all of them then evaluate the
 * single shared float epilogue expression (requantOne + bias +
 * scalar::applyStages). int8 execution is therefore bit-identical
 * across backends, runtimes, and fused-vs-granular graph forms — the
 * tolerance contract is only against the float baseline. The
 * weight-only kernels accumulate in f32 but k-ascending without
 * reassociation or zero-skipping on both layouts, so they are
 * bit-identical across backends too.
 */

namespace ngb {

class ParallelRegion;

namespace kernels {
namespace qnt {

/**
 * Saturating f32 -> i8 cast: clamp to [-128,127], round half away from
 * zero — exactly the Tensor I8 storeElement convention, so the raw
 * pointer fast paths and the flatSet fallbacks quantize identically.
 */
inline int8_t
satCastI8(float v)
{
    float c = v < -128.0f ? -128.0f : (v > 127.0f ? 127.0f : v);
    return static_cast<int8_t>(std::lround(c));
}

/**
 * The shared requantize epilogue expression: accumulator times the
 * combined activation/channel scale. Every int8 kernel (tiled or
 * naive) and the granular Dequantize kernel evaluate THIS expression —
 * sharing the literal float expression is what keeps fused and
 * granular quantized execution bit-identical.
 */
inline float
requantOne(int32_t acc, float xScale, float wScale)
{
    return static_cast<float>(acc) * (xScale * wScale);
}

/** Read a [1] activation-scale tensor; throws when the scale is not a
 *  positive finite value (a zero scale would be a silent div-by-zero
 *  upstream, so it is rejected loudly here). */
float scaleValue(const Tensor &scale);

/**
 * Dynamic absmax activation quantization: scale = absmax/127 (1.0 for
 * an all-zero tensor), xq = saturate(round(x / scale)). Returns
 * {xq I8 (x's shape), scale F32 [1]}.
 */
std::pair<Tensor, Tensor> quantizeActivation(const Tensor &x,
                                             Tensor dstQ = {},
                                             Tensor dstScale = {});

/** Symmetric int8 quantization with an explicit scale; throws when the
 *  scale is not positive and finite. */
Tensor quantizeWithScale(const Tensor &x, float scale, Tensor dst = {});

// ----- granular pipeline (reference row layout, [N,K] weights) -----------

/** xq [..,K] i8 times wq [N,K] i8 -> raw i32 accumulators [..,N]. */
Tensor int8AccLinear(const Tensor &xq, const Tensor &wq, Tensor dst = {});

/**
 * The granular Dequantize kernel: i32 accumulators back to f32 with
 * the per-channel rescale and the bias applied after it —
 * y[..,n] = requantOne(acc, xScale, wScales[n]) + bias[n].
 */
Tensor requantize(const Tensor &acc, float xScale, const Tensor &wScales,
                  const Tensor &bias, Tensor dst = {});

/** Naive int8 GEMM with the full requantize epilogue (+ optional fused
 *  point-wise @p stages) in the write-out; [N,K] weight layout. */
Tensor int8LinearRequant(const Tensor &xq, float xScale, const Tensor &wq,
                         const Tensor &wScales, const Tensor &bias,
                         const scalar::UnaryStage *stages, size_t nStages,
                         Tensor dst = {});

// ----- weight-only int8 (f32 activations, int8 weights) ------------------

/** Naive weight-only linear: f32 x times int8 [N,K] weight,
 *  dequantized inside the k loop's f32 accumulation; the per-channel
 *  scale multiplies the finished accumulator. */
Tensor w8Linear(const Tensor &x, const Tensor &wq, const Tensor &wScales,
                const Tensor &bias, Tensor dst = {});

/**
 * Tiled weight-only linear over a packed [K,N] int8 weight (from
 * packWeightInt8) with the scale/bias/stages epilogue fused into the
 * 4x16 tile write-out. An optional ParallelRegion shards the output
 * into row blocks; rows are independent k-ascending f32 chains, so the
 * result is bit-identical at every thread count.
 */
Tensor w8LinearPacked(const Tensor &x, const Tensor &wtq,
                      const Tensor &wScales, const Tensor &bias,
                      const scalar::UnaryStage *stages, size_t nStages,
                      Tensor dst = {},
                      const ParallelRegion *par = nullptr);

}  // namespace qnt
}  // namespace kernels
}  // namespace ngb

#endif  // NGB_QUANT_QUANT_KERNELS_H
