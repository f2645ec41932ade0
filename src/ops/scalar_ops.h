#ifndef NGB_OPS_SCALAR_OPS_H
#define NGB_OPS_SCALAR_OPS_H

#include <cmath>
#include <cstddef>

/**
 * @file
 * Per-element float expressions shared by the simd backend's
 * element-wise sweeps, the fused single-pass chain loop, and the
 * GEMM epilogues. Sharing the literal expression — not just the
 * semantics — is what makes fused execution bit-identical to unfused
 * execution under the simd backend: a chain applied one stage per element
 * evaluates exactly the float ops the member-by-member sweeps would.
 * The expressions also match the reference kernels in
 * elementwise_kernels.cc (asserted by the backend differential tests).
 */

namespace ngb {
namespace kernels {
namespace scalar {

inline float
relu(float v)
{
    return v > 0.0f ? v : 0.0f;
}

inline float
gelu(float v)
{
    return 0.5f * v * (1.0f + std::erf(v * 0.70710678f));
}

inline float
silu(float v)
{
    return v / (1.0f + std::exp(-v));
}

inline float
sigmoid(float v)
{
    return 1.0f / (1.0f + std::exp(-v));
}

inline float
tanhOp(float v)
{
    return std::tanh(v);
}

inline float
expOp(float v)
{
    return std::exp(v);
}

/**
 * One unary point-wise stage of a fused chain. The set is exactly the
 * operators the simd backend overrides with these expressions, so
 * a single-pass loop over stages stays bit-identical to the unfused
 * sweeps; chains containing anything else fall back to member-by-member
 * interpretation.
 */
enum class UnaryKind {
    Relu,
    Gelu,
    Silu,
    Sigmoid,
    Tanh,
    Exp,
    AddScalar,
    MulScalar,
};

struct UnaryStage {
    UnaryKind kind = UnaryKind::Relu;
    float scalar = 0.0f;  ///< operand of AddScalar / MulScalar
};

inline float
applyUnary(const UnaryStage &s, float v)
{
    switch (s.kind) {
      case UnaryKind::Relu:
        return relu(v);
      case UnaryKind::Gelu:
        return gelu(v);
      case UnaryKind::Silu:
        return silu(v);
      case UnaryKind::Sigmoid:
        return sigmoid(v);
      case UnaryKind::Tanh:
        return tanhOp(v);
      case UnaryKind::Exp:
        return expOp(v);
      case UnaryKind::AddScalar:
        return v + s.scalar;
      case UnaryKind::MulScalar:
        return v * s.scalar;
    }
    return v;
}

/** Apply a stage sequence to one element, chain order. */
inline float
applyStages(const UnaryStage *stages, size_t n, float v)
{
    for (size_t i = 0; i < n; ++i)
        v = applyUnary(stages[i], v);
    return v;
}

}  // namespace scalar
}  // namespace kernels
}  // namespace ngb

#endif  // NGB_OPS_SCALAR_OPS_H
