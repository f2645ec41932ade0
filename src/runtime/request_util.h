#ifndef NGB_RUNTIME_REQUEST_UTIL_H
#define NGB_RUNTIME_REQUEST_UTIL_H

#include <string>
#include <vector>

#include "graph/graph.h"
#include "tensor/tensor.h"

namespace ngb {

/**
 * Deterministic inputs for one request against @p g: seeded Gaussian
 * activations for float inputs, small cycling token ids for I32
 * inputs. Shared by the CLI's --verify, the batch-scaling bench, and
 * the runtime tests so all three exercise identical traffic.
 */
std::vector<Tensor> makeRequestInputs(const Graph &g, uint64_t seed);

/**
 * Compare two output sets bit-for-bit (float payloads compared by bit
 * pattern, so NaN payloads and signed zeros must match too). Returns
 * an empty string when identical, else a description of the first
 * mismatch.
 */
std::string bitDifference(const std::vector<Tensor> &a,
                          const std::vector<Tensor> &b);

inline bool
bitIdentical(const std::vector<Tensor> &a, const std::vector<Tensor> &b)
{
    return bitDifference(a, b).empty();
}

/**
 * Compare two output sets within float tolerance: every element must
 * satisfy |a - b| <= atol + rtol * |b| (numpy allclose semantics, b is
 * the reference). The cross-backend check: simd kernels may legally
 * round float accumulation differently (FMA), so their outputs match the
 * reference backend to tolerance rather than bit-for-bit. Returns an
 * empty string when close, else a description of the worst mismatch.
 */
std::string closeDifference(const std::vector<Tensor> &a,
                            const std::vector<Tensor> &b,
                            float rtol = 1e-3f, float atol = 1e-5f);

inline bool
allClose(const std::vector<Tensor> &a, const std::vector<Tensor> &b,
         float rtol = 1e-3f, float atol = 1e-5f)
{
    return closeDifference(a, b, rtol, atol).empty();
}

/**
 * Compare a quantized run @p a against its float baseline @p b by
 * relative L2 error per output tensor: ||a - b|| / max(||b||, eps)
 * must stay below @p maxRelL2. Element-wise tolerances are the wrong
 * yardstick for int8 — quantization error is a dense, small, roughly
 * uniform perturbation, so individual near-zero elements legitimately
 * move by many times their own magnitude while the tensor as a whole
 * stays close. Non-F32 outputs (token ids) must still match exactly.
 * Returns an empty string when within tolerance, else a description
 * of the worst output.
 */
std::string quantDifference(const std::vector<Tensor> &a,
                            const std::vector<Tensor> &b,
                            double maxRelL2 = 0.12);

inline bool
quantClose(const std::vector<Tensor> &a, const std::vector<Tensor> &b,
           double maxRelL2 = 0.12)
{
    return quantDifference(a, b, maxRelL2).empty();
}

}  // namespace ngb

#endif  // NGB_RUNTIME_REQUEST_UTIL_H
