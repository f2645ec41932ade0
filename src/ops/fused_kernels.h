#ifndef NGB_OPS_FUSED_KERNELS_H
#define NGB_OPS_FUSED_KERNELS_H

#include <vector>

#include "ops/backend.h"
#include "platform/simd.h"

/**
 * @file
 * Execution of OpKind::Fused nodes produced by applyFusion.
 *
 * Two strategies exist:
 *
 *  - evalFusedChain: interpret the folded chain member-by-member,
 *    dispatching every member through a backend's registry. Exactly
 *    the kernels the unfused graph would run, in the same order, so
 *    outputs are bit-identical to unfused execution under the same
 *    backend. This is the reference backend's Fused kernel and the
 *    universal fallback.
 *
 *  - evalFusedSimd: the simd backend's Fused kernel, on the GEMM of
 *    the backend's dispatch level. CONV+BN(+act) triples run as ONE
 *    im2col GEMM convolution with the BN affine pre-merged into the
 *    weights (ParamStore::derived, amortized per engine) and the
 *    activation in the GEMM epilogue — numerics match the unfused
 *    chain to float tolerance (the affine merge reassociates the
 *    per-element scale). Linear / Int8Linear(requant) / weight-only
 *    Linear + point-wise epilogues run the stages over each finished
 *    output tile, and all-unary point-wise chains run as a single-pass
 *    loop — both bit-identical to the unfused simd kernels (same
 *    scalar expressions, same per-element order; see
 *    ops/scalar_ops.h). Everything else falls back to chain
 *    interpretation under the active backend.
 */

namespace ngb {

/**
 * Interpret the fused chain of @p c's node, dispatching members
 * through @p memberBackend. Throws a descriptive error naming the
 * fused group and the member when the chain is malformed or a member
 * operator cannot be folded (no kernel for it in the backend chain).
 */
std::vector<Tensor> evalFusedChain(const KernelContext &c,
                                   const Backend &memberBackend);

/** The simd backend's Fused kernel at @p ops' level (see file
 *  comment). */
std::vector<Tensor> evalFusedSimd(const KernelContext &c,
                                  const simd::SimdOps &ops);

/**
 * Pre-build the merged Conv+BN affines evalFusedSimd memoizes, so
 * engine warm-up pays the one-time cost instead of the first request.
 * Called from the simd backend's prepare hook (which packs the member
 * weights itself).
 */
void prepareFusedGroups(const Graph &g, ParamStore &params);

}  // namespace ngb

#endif  // NGB_OPS_FUSED_KERNELS_H
