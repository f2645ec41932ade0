#ifndef NGB_OPS_KERNELS_H
#define NGB_OPS_KERNELS_H

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "tensor/scratch.h"
#include "tensor/tensor.h"

/**
 * @file
 * Reference CPU kernels for every operator in the NonGEMM Bench
 * inventory. Kernels are straightforward, well-tested implementations
 * optimized for clarity: they define the numerical ground truth every
 * other backend is differential-tested against, and they are the
 * fallback the dispatch registry resolves to for ops a backend does
 * not override. Host speed DOES matter now that the runtime and
 * serving layers execute these concretely — but fast variants belong
 * in the "simd" backend (ops/simd_backend.h), not here;
 * bench/micro_kernels tracks the per-op gap between the two.
 *
 * Destination passing: every allocating kernel takes a trailing
 * optional @p dst. When provided (the backends pass
 * KernelContext::out(), i.e. the executor's planned arena slot or a
 * fresh heap buffer), the kernel writes its result there and performs
 * no output allocation of its own; when omitted it allocates an
 * uninitialized heap tensor, so standalone calls keep working. Kernel
 * math is unchanged either way. Internal temporaries come from the
 * thread's ScratchScope (tensor/scratch.h) and die with the call.
 */

namespace ngb {
namespace kernels {

/**
 * Claim @p dst as the output buffer when provided, else allocate an
 * uninitialized heap tensor. A provided destination must be contiguous
 * with the right dtype and element count; a rank-mismatched (but
 * numel-matched) destination is reinterpreted to @p shape, so kernels
 * can claim flattened working views of their planned output.
 */
inline Tensor
claimOut(Tensor dst, const Shape &shape, DType dtype)
{
    if (!dst.defined())
        return Tensor::empty(shape, dtype);
    if (dst.dtype() != dtype || !dst.isContiguous() ||
        dst.numel() != shape.numel())
        throw std::runtime_error(
            "claimOut: destination mismatch (want " + shape.str() +
            ", have " + dst.shape().str() + ")");
    if (!(dst.shape() == shape))
        return dst.view(shape);
    return dst;
}

// ----- GEMM-based operators ---------------------------------------------

/**
 * Fully connected layer: y = x @ w^T + b.
 *
 * @param x [.., K] input; leading dims are flattened to rows.
 * @param w [N, K] weight (PyTorch nn.Linear layout).
 * @param b optional [N] bias (pass an undefined Tensor to skip).
 * @return [.., N]
 */
Tensor linear(const Tensor &x, const Tensor &w, const Tensor &b,
              Tensor dst = {});

/** Plain 2-D matrix product: [M,K] @ [K,N] -> [M,N]. */
Tensor matmul(const Tensor &a, const Tensor &b, Tensor dst = {});

/** Batched matrix product: [B,M,K] @ [B,K,N] -> [B,M,N]. */
Tensor bmm(const Tensor &a, const Tensor &b, Tensor dst = {});

/**
 * 2-D convolution via explicit im2col + GEMM, NCHW layout.
 *
 * @param x [N, C, H, W]
 * @param w [F, C/groups, R, S]
 * @param b optional [F]
 */
Tensor conv2d(const Tensor &x, const Tensor &w, const Tensor &b,
              int stride, int padding, int groups = 1, Tensor dst = {});

/**
 * LLM.int8()-style quantized linear: int8 x int8 -> int32 accumulate,
 * then rescale by x_scale * w_scale into float.
 */
Tensor int8Linear(const Tensor &x_q, const Tensor &w_q, const Tensor &b,
                  float x_scale, float w_scale, Tensor dst = {});

// ----- Activations -------------------------------------------------------

Tensor relu(const Tensor &x, Tensor dst = {});
/** Exact GELU using erf (the variant HF transformers defaults to). */
Tensor gelu(const Tensor &x, Tensor dst = {});
/** SiLU / swish: x * sigmoid(x). */
Tensor silu(const Tensor &x, Tensor dst = {});
Tensor sigmoid(const Tensor &x, Tensor dst = {});
Tensor tanhOp(const Tensor &x, Tensor dst = {});
Tensor expOp(const Tensor &x, Tensor dst = {});
Tensor logOp(const Tensor &x, Tensor dst = {});
Tensor erfOp(const Tensor &x, Tensor dst = {});

// ----- Normalization -----------------------------------------------------

/** LayerNorm over the last dimension. */
Tensor layerNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                 float eps, Tensor dst = {});
/** Inference-mode BatchNorm over dim 1 of NCHW using running stats. */
Tensor batchNorm2d(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                   const Tensor &mean, const Tensor &var, float eps,
                   Tensor dst = {});
/** RMSNorm over the last dimension (no mean subtraction). */
Tensor rmsNorm(const Tensor &x, const Tensor &gamma, float eps,
               Tensor dst = {});
/** GroupNorm over NCHW with @p groups channel groups. */
Tensor groupNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                 int groups, float eps, Tensor dst = {});

// ----- Element-wise arithmetic (numpy-style broadcasting) ----------------

Tensor add(const Tensor &a, const Tensor &b, Tensor dst = {});
Tensor sub(const Tensor &a, const Tensor &b, Tensor dst = {});
Tensor mul(const Tensor &a, const Tensor &b, Tensor dst = {});
Tensor div(const Tensor &a, const Tensor &b, Tensor dst = {});
Tensor neg(const Tensor &x, Tensor dst = {});
Tensor sqrtOp(const Tensor &x, Tensor dst = {});
/** Element-wise power with scalar exponent. */
Tensor powScalar(const Tensor &x, float e, Tensor dst = {});
Tensor addScalar(const Tensor &x, float s, Tensor dst = {});
Tensor mulScalar(const Tensor &x, float s, Tensor dst = {});
/** where(cond, a, b) with cond broadcast against a/b. */
Tensor where(const Tensor &cond, const Tensor &a, const Tensor &b,
             Tensor dst = {});

// ----- Logit computation --------------------------------------------------

/** Numerically stable softmax along dimension @p dim. */
Tensor softmax(const Tensor &x, int dim, Tensor dst = {});
Tensor logSoftmax(const Tensor &x, int dim, Tensor dst = {});

// ----- RoI selection ------------------------------------------------------

/**
 * Non-maximum suppression (Figure 2 (a) of the paper).
 *
 * @param boxes [N,4] as (y1,x1,y2,x2).
 * @param scores [N].
 * @param iou_threshold overlapping proposals above this IoU are dropped.
 * @param score_threshold proposals below this score are dropped first.
 * @return indices of kept boxes, sorted by descending score (I32 [K]).
 *         The result size is data-dependent, so it comes from scratch
 *         (inside a scope) or the heap — callers holding it beyond the
 *         enclosing ScratchScope must copy it out.
 */
Tensor nms(const Tensor &boxes, const Tensor &scores, float iou_threshold,
           float score_threshold);

/**
 * RoIAlign with bilinear sampling.
 *
 * @param feat [N,C,H,W] feature map.
 * @param rois [R,5] as (batch_idx, y1, x1, y2, x2) in feature coords.
 * @param out_h,out_w output resolution per RoI.
 * @return [R, C, out_h, out_w]
 */
Tensor roiAlign(const Tensor &feat, const Tensor &rois, int out_h,
                int out_w, Tensor dst = {});

// ----- Interpolation ------------------------------------------------------

/** Bilinear resize of NCHW input to (out_h, out_w). */
Tensor interpolateBilinear(const Tensor &x, int out_h, int out_w,
                           Tensor dst = {});

// ----- Pooling ------------------------------------------------------------

Tensor maxPool2d(const Tensor &x, int kernel, int stride, int padding,
                 Tensor dst = {});
Tensor avgPool2d(const Tensor &x, int kernel, int stride, int padding,
                 Tensor dst = {});
/** Adaptive average pool to (out_h, out_w). */
Tensor adaptiveAvgPool2d(const Tensor &x, int out_h, int out_w,
                         Tensor dst = {});

// ----- Embedding / indexing ----------------------------------------------

/** Row gather: ids (I32 [..]) indexing table [V,D] -> [.., D]. */
Tensor embedding(const Tensor &ids, const Tensor &table, Tensor dst = {});

/** Top-k along the last dimension; returns (values, indices). */
std::pair<Tensor, Tensor> topk(const Tensor &x, int k,
                               Tensor values_dst = {},
                               Tensor indices_dst = {});

/** Gather along @p dim with an index tensor of the same rank. */
Tensor gather(const Tensor &x, int dim, const Tensor &index,
              Tensor dst = {});

/** Inclusive cumulative sum along @p dim. */
Tensor cumsum(const Tensor &x, int dim, Tensor dst = {});

// ----- Memory operators that move bytes -----------------------------------

/** Concatenate along @p dim. */
Tensor concat(const std::vector<Tensor> &xs, int dim, Tensor dst = {});

/** Split into equal chunks of @p size along @p dim (views of @p x). */
std::vector<Tensor> split(const Tensor &x, int64_t size, int dim);

/** Circular shift by @p shift along @p dim (torch.roll). */
Tensor roll(const Tensor &x, int64_t shift, int dim, Tensor dst = {});

/** Zero-pad @p dim with @p before/@p after extra entries (F.pad). */
Tensor pad(const Tensor &x, int dim, int64_t before, int64_t after,
           Tensor dst = {});

// ----- Quantization --------------------------------------------------------

/** Symmetric per-tensor quantization to int8 with the given scale. */
Tensor quantize(const Tensor &x, float scale, Tensor dst = {});
/** Dequantize int8 back to float with the given scale. */
Tensor dequantize(const Tensor &x_q, float scale, Tensor dst = {});
/** absmax / 127 scale for symmetric quantization. */
float absmaxScale(const Tensor &x);

}  // namespace kernels
}  // namespace ngb

#endif  // NGB_OPS_KERNELS_H
