#include "platform/simd.h"

#include <cstring>

#include "platform/simd_kernels_inl.h"

/**
 * @file
 * The portable level: the shared SIMD kernel bodies instantiated over a
 * fixed-width plain float array, compiled with baseline flags (plus
 * -ffp-contract=off, see CMakeLists.txt) so it runs on every host. The
 * compiler auto-vectorizes the per-lane loops to whatever the baseline
 * ISA offers (SSE2 on x86-64, ASIMD on aarch64). The one exception is
 * the same-shape binary op, a plain per-element loop (see below).
 *
 * The register is 16 floats wide, so the default 4x1 tile is the 4x16
 * register tile. Its fma is mul-then-add: std::fmaf compiles to a libm
 * call without hardware FMA and would cost ~5x in the GEMM inner loop.
 * The portable GEMM therefore rounds like the reference kernels (one
 * k-ascending mul+add chain per element, no reassociation) and is
 * tolerance-compared against the FMA levels.
 *
 * The int8 GEMM is the 4x16 i32 register-tile core over the plain
 * row-major [K,N] weight: exact i32 accumulation, so it is bit-identical
 * to every other int8 kernel.
 */

namespace ngb {
namespace simd {
namespace {

#if defined(__GNUC__)
#define NGB_LANES inline __attribute__((always_inline))
#else
#define NGB_LANES inline
#endif

/**
 * The portable register: 16 floats. Every op — loads and stores
 * included — is one loop over the lanes that the compiler unrolls and
 * vectorizes once inlined. Both details matter: an out-of-line op
 * returns its array through memory (the GEMM panel runs ~7x slower),
 * and a memcpy load/store halves the element-wise throughput.
 */
struct VP {
    static constexpr int W = 16;
    struct R {
        float v[W];
    };
    static NGB_LANES R load(const float *p)
    {
        R r;
        for (int i = 0; i < W; ++i)
            r.v[i] = p[i];
        return r;
    }
    static NGB_LANES void store(float *p, const R &r)
    {
        for (int i = 0; i < W; ++i)
            p[i] = r.v[i];
    }
    static NGB_LANES R broadcast(float s)
    {
        R r;
        for (int i = 0; i < W; ++i)
            r.v[i] = s;
        return r;
    }
    static NGB_LANES R zero() { return broadcast(0.0f); }
    static NGB_LANES R add(const R &a, const R &b)
    {
        R r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] + b.v[i];
        return r;
    }
    static NGB_LANES R sub(const R &a, const R &b)
    {
        R r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] - b.v[i];
        return r;
    }
    static NGB_LANES R mul(const R &a, const R &b)
    {
        R r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] * b.v[i];
        return r;
    }
    static NGB_LANES R div(const R &a, const R &b)
    {
        R r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] / b.v[i];
        return r;
    }
    /** a > b ? a : b — relu's max(x, 0) is then the scalar relu. */
    static NGB_LANES R max(const R &a, const R &b)
    {
        R r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
        return r;
    }
    /** Mul-then-add: two roundings, like the reference kernels. */
    static NGB_LANES R fma(const R &a, const R &b, const R &c)
    {
        R r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] * b.v[i] + c.v[i];
        return r;
    }
    static NGB_LANES float fmaScalar(float a, float b, float c)
    {
        return a * b + c;
    }
    static NGB_LANES float reduceAdd(const R &r)
    {
        float s = 0.0f;
        for (int i = 0; i < W; ++i)
            s += r.v[i];
        return s;
    }
};

#undef NGB_LANES

/**
 * Same-shape binary ops as plain per-element loops — the template's
 * expressions, so still bit-identical to every level. With two input
 * streams the register-shaped template loop measured ~2x slower than
 * the compiler's own vectorized loop (65536 floats, x86-64 SSE2).
 */
void
binaryOpPortable(int op, const float *a, const float *b, float *out,
                 int64_t n)
{
    switch (op) {
    case 0:
        for (int64_t i = 0; i < n; ++i)
            out[i] = a[i] + b[i];
        break;
    case 1:
        for (int64_t i = 0; i < n; ++i)
            out[i] = a[i] - b[i];
        break;
    case 2:
        for (int64_t i = 0; i < n; ++i)
            out[i] = a[i] * b[i];
        break;
    default:
        for (int64_t i = 0; i < n; ++i)
            out[i] = a[i] / b[i];
        break;
    }
}

constexpr int64_t kMR = 4;   ///< int8 output rows per register tile
constexpr int64_t kNR = 16;  ///< int8 output cols per register tile

/** i32 dot of row @p a (K bytes) with column @p j of B[K,N]. */
int32_t
dotI8(const int8_t *a, const int8_t *B, int64_t j, int64_t K, int64_t N)
{
    int32_t acc = 0;
    for (int64_t k = 0; k < K; ++k)
        acc += static_cast<int32_t>(a[k]) *
               static_cast<int32_t>(B[k * N + j]);
    return acc;
}

/**
 * C[M,N] (i32) = A[M,K] (i8) * B[K,N] (i8): 4x16 accumulator tiles in
 * registers across the k loop, so each B row is loaded once per four
 * output rows; scalar dots for the M and N tails.
 */
void
gemmI8Portable(const int8_t *A, const int8_t *B, int32_t *C, int64_t M,
               int64_t K, int64_t N, const TileConfig &)
{
    int64_t i = 0;
    for (; i + kMR <= M; i += kMR) {
        int64_t j = 0;
        for (; j + kNR <= N; j += kNR) {
            int32_t acc[kMR][kNR] = {};
            for (int64_t k = 0; k < K; ++k) {
                const int8_t *brow = B + k * N + j;
                int32_t av[kMR];
                for (int64_t r = 0; r < kMR; ++r)
                    av[r] = A[(i + r) * K + k];
                for (int64_t jj = 0; jj < kNR; ++jj) {
                    int32_t bv = brow[jj];
                    for (int64_t r = 0; r < kMR; ++r)
                        acc[r][jj] += av[r] * bv;
                }
            }
            for (int64_t r = 0; r < kMR; ++r)
                std::memcpy(C + (i + r) * N + j, acc[r], sizeof acc[r]);
        }
        for (; j < N; ++j)
            for (int64_t r = 0; r < kMR; ++r)
                C[(i + r) * N + j] = dotI8(A + (i + r) * K, B, j, K, N);
    }
    for (; i < M; ++i)
        for (int64_t j = 0; j < N; ++j)
            C[i * N + j] = dotI8(A + i * K, B, j, K, N);
}

const SimdOps kOpsPortable = {
    "scalar",
    platform::IsaLevel::Scalar,
    VP::W,
    false,
    &inl::gemmF32Tmpl<VP>,
    &inl::gemmF32StridedTmpl<VP>,
    &gemmI8Portable,
    &inl::reluTmpl<VP>,
    &inl::addScalarTmpl<VP>,
    &inl::mulScalarTmpl<VP>,
    &binaryOpPortable,
    &inl::layerNormRowsTmpl<VP>,
};

}  // namespace

const SimdOps *
simdOpsPortable()
{
    return &kOpsPortable;
}

}  // namespace simd
}  // namespace ngb
