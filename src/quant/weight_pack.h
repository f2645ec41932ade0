#ifndef NGB_QUANT_WEIGHT_PACK_H
#define NGB_QUANT_WEIGHT_PACK_H

#include <cstdint>

#include "graph/param_store.h"
#include "tensor/tensor.h"

/**
 * @file
 * Packed int8 weights for the executable quantization subsystem.
 *
 * A quantized GEMM node keeps its master parameter in F32 (ParamStore
 * seeds Gaussians whose std is far below one int8 step, so storing the
 * master narrow would round every weight to zero — the modeled legacy
 * path's known defect). The int8 representation the kernels actually
 * stream is derived once per node through ParamStore::derived:
 * per-output-channel symmetric scales plus the quantized weight in
 * either the reference row layout [N,K] or the packed [K,N] layout the
 * tiled GEMM core wants. Both backends derive from the same master
 * with the same rounding, which is what makes int8 execution
 * bit-identical across backends (i32 accumulation is exact).
 */

namespace ngb {
namespace quant {

// ParamStore::derived slots used on quantized nodes. Slots 0/1 belong
// to the fusion layer (packed f32 Linear weight / folded conv affine);
// the quant layer claims a disjoint range.
constexpr size_t kWeightScaleSlot = 8;   ///< per-channel scales, F32 [N]
constexpr size_t kPackedWeightSlot = 9;  ///< packed int8 weight, I8 [K,N]
constexpr size_t kRowWeightSlot = 10;    ///< row-major int8 weight, I8 [N,K]

/**
 * Per-output-channel symmetric scales for a [N,K] weight:
 * s[n] = absmax(w[n,:]) / 127, with 1.0 for all-zero rows so the
 * quantized row is exactly zero instead of dividing by zero.
 */
Tensor perChannelScales(const Tensor &w);

/**
 * Quantize a [N,K] f32 weight to int8 rows with @p scales, saturating
 * to [-128,127] and rounding half away from zero — exactly the Tensor
 * I8 store convention, so round-tripping through an I8 tensor is the
 * identity.
 */
Tensor quantizeWeightRows(const Tensor &w, const Tensor &scales);

/**
 * Quantize AND transpose to the [K,N] layout the tiled int8 GEMM core
 * streams (the int8 analogue of opt::packWeightTranspose). Same
 * per-element values as quantizeWeightRows.
 */
Tensor packWeightInt8(const Tensor &w, const Tensor &scales);

/**
 * Dequantize an int8 [N,K] row weight back to f32: w[n,k] =
 * wq[n,k] * s[n]. Used by round-trip tests and to reason about the
 * weight-only method's effective weight.
 */
Tensor unpackWeightInt8(const Tensor &wq, const Tensor &scales);

/** Memoized per-channel scales of @p n's weight (param 0). */
const Tensor &weightScales(const Node &n, ParamStore &params);

/** Memoized packed [K,N] int8 weight of @p n (GEMM-streaming layout). */
const Tensor &packedWeight(const Node &n, ParamStore &params);

/** Memoized [N,K] int8 weight of @p n (reference layout). */
const Tensor &rowWeight(const Node &n, ParamStore &params);

/** Bytes of the int8 representation of a [N,K] weight: the quantized
 *  elements plus the f32 per-channel scales. */
int64_t packedWeightBytes(const Shape &w);

/** Bytes of the f32 weight the int8 representation replaces. */
int64_t floatWeightBytes(const Shape &w);

}  // namespace quant
}  // namespace ngb

#endif  // NGB_QUANT_WEIGHT_PACK_H
