#include "ops/simd_backend.h"

#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ops/fused_kernels.h"
#include "ops/kernels.h"
#include "platform/tuning_cache.h"
#include "quant/quant_kernels.h"
#include "quant/weight_pack.h"
#include "runtime/intraop.h"
#include "tensor/scratch.h"

/**
 * @file
 * Tensor plumbing for the simd backend: shape checks, operand
 * materialization, weight-layout packs, autotuner hookup, the
 * point-wise sweeps, and the Backend registrations. The raw vector
 * kernels live in src/platform/ (one TU per level); this file never
 * touches intrinsics, so it compiles with baseline flags and is safe to
 * run at any dispatch level.
 */

namespace ngb {

namespace {

namespace kq = kernels::qnt;
namespace sc = kernels::scalar;
using kernels::claimOut;
using simd::SimdOps;
using simd::TileConfig;
using simd::TuneKey;
using simd::TuningCache;

/** ParamStore::derived slot for the int8 dot-interleaved weight
 *  (fusion owns 0/1, quant owns 8-10). */
constexpr size_t kDotWeightSlot = 11;

/** Below this the sharding overhead exceeds the GEMM itself. */
constexpr int64_t kParMinFlops = 1 << 17;

/** True when @p t can be walked through a raw F32 pointer. */
bool
fastF32(const Tensor &t)
{
    return t.defined() && t.dtype() == DType::F32 && t.isContiguous();
}

std::string
shapeKey(int64_t m, int64_t k, int64_t n)
{
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
}

int
parThreads(const ParallelRegion *par)
{
    return par ? par->threads() : 1;
}

/**
 * What a GEMM applies to each finished output element after its own
 * column bias: a per-row bias (the im2col conv convention, one bias per
 * filter row), then the point-wise stages in chain order.
 */
struct Epilogue {
    const float *rowBias = nullptr;
    const sc::UnaryStage *stages = nullptr;
    size_t nStages = 0;

    bool empty() const { return !rowBias && nStages == 0; }

    /** Apply to the rows x cols block at @p c (leading dim @p ldc)
     *  whose first row is output row @p row0. */
    void apply(float *c, int64_t ldc, int64_t row0, int64_t rows,
               int64_t cols) const
    {
        if (empty())
            return;
        for (int64_t r = 0; r < rows; ++r) {
            float *crow = c + r * ldc;
            const float rb = rowBias ? rowBias[row0 + r] : 0.0f;
            for (int64_t j = 0; j < cols; ++j) {
                float v = crow[j];
                if (rowBias)
                    v += rb;
                crow[j] = sc::applyStages(stages, nStages, v);
            }
        }
    }
};

/**
 * One f32 GEMM through @p ops, sharded into macro-tiles across
 * @p par's workers when profitable, serial otherwise, with @p epi
 * applied to each macro-tile inside the shard that finished it. Shards
 * call gemmF32Strided on row-band x column-slice sub-problems with the
 * full K per shard — the per-element k chain is never split, so the
 * result is bit-identical to one serial gemmF32 call (simd.h numerics
 * contract) at every thread count.
 */
void
simdGemmPar(const SimdOps &ops, const ParallelRegion *par,
            const float *A, const float *B, float *C, int64_t m,
            int64_t k, int64_t n, const float *bias,
            const TileConfig &tile, const Epilogue &epi = {})
{
    const int threads = parThreads(par);
    if (threads <= 1 || 2 * m * n * k < kParMinFlops) {
        ops.gemmF32(A, B, C, m, k, n, bias, tile);
        epi.apply(C, n, 0, m, n);
        return;
    }
    // 64-row bands; column blocks shrink (in vector-width steps) until
    // the grid covers the pool. Split geometry cannot change results —
    // it is purely a load-balance / locality choice.
    constexpr int64_t kMC = 64;
    const int64_t mBlocks = (m + kMC - 1) / kMC;
    const int64_t nUnit = ops.vectorWidthF32;
    int64_t nc = 16 * nUnit < n ? 16 * nUnit : n;
    while (nc > nUnit &&
           mBlocks * ((n + nc - 1) / nc) < static_cast<int64_t>(threads))
        nc -= nUnit;
    const int64_t nBlocks = (n + nc - 1) / nc;
    par->run(static_cast<size_t>(mBlocks * nBlocks), [&](size_t s, int) {
        const int64_t i0 = static_cast<int64_t>(s) / nBlocks * kMC;
        const int64_t j0 = static_cast<int64_t>(s) % nBlocks * nc;
        const int64_t h = m - i0 < kMC ? m - i0 : kMC;
        const int64_t w = n - j0 < nc ? n - j0 : nc;
        float *c = C + i0 * n + j0;
        ops.gemmF32Strided(A + i0 * k, k, B + j0, n, c, n, h, k, w,
                           bias ? bias + j0 : nullptr, tile);
        epi.apply(c, n, i0, h, w);
    });
}

/**
 * Pick the tile for one GEMM call: replay the tuning cache, or time
 * every candidate through @p run (each run produces the full, correct
 * output — candidates are bit-identical — so tuning leaves the
 * destination valid no matter which candidate ran last).
 */
TileConfig
chooseTile(const SimdOps &ops, const char *op,
           const std::vector<TileConfig> &cands, int64_t m, int64_t k,
           int64_t n, int threads,
           const std::function<void(const TileConfig &)> &run)
{
    using Clock = std::chrono::steady_clock;
    int idx = TuningCache::process().choose(
        TuneKey{op, shapeKey(m, k, n), ops.name, threads},
        static_cast<int>(cands.size()), [&](int i) {
            // Two timed runs per candidate, best-of: the first pays
            // first-touch and warms caches for its successor, so the
            // min is a stable ranking signal even on noisy hosts.
            double best = std::numeric_limits<double>::infinity();
            for (int rep = 0; rep < 2; ++rep) {
                auto t0 = Clock::now();
                run(cands[i]);
                double ns = std::chrono::duration<double, std::nano>(
                                Clock::now() - t0)
                                .count();
                best = best < ns ? best : ns;
            }
            return best;
        });
    return cands[idx];
}

// ----- f32 GEMM family ---------------------------------------------------

Tensor
simdMatmul(const SimdOps &ops, const Tensor &a, const Tensor &b,
           Tensor dst, const ParallelRegion *par)
{
    if (a.shape().rank() != 2 || b.shape().rank() != 2)
        throw std::runtime_error("simd matmul: rank-2 inputs required");
    int64_t m = a.shape()[0], k = a.shape()[1];
    if (b.shape()[0] != k)
        throw std::runtime_error("simd matmul: inner dim mismatch");
    int64_t n = b.shape()[1];
    Tensor ac = toContiguousF32(a);
    Tensor bc = toContiguousF32(b);
    Tensor out = claimOut(std::move(dst), Shape{m, n}, DType::F32);
    auto run = [&](const TileConfig &t) {
        simdGemmPar(ops, par, ac.dataF32(), bc.dataF32(), out.dataF32(),
                    m, k, n, nullptr, t);
    };
    run(chooseTile(ops, "matmul", simd::gemmTileCandidates(ops.level), m,
                   k, n, parThreads(par), run));
    return out;
}

Tensor
simdLinearPacked(const SimdOps &ops, const Tensor &x, const Tensor &wt,
                 const Tensor &b, const Epilogue &epi, Tensor dst,
                 const ParallelRegion *par)
{
    if (wt.shape().rank() != 2)
        throw std::runtime_error("simd linear: [K,N] packed weight "
                                 "required");
    int64_t k = wt.shape()[0], n = wt.shape()[1];
    if (x.shape().dim(-1) != k)
        throw std::runtime_error("simd linear: input last dim != K");
    Tensor rows = toContiguousF32(x).view(Shape{x.numel() / k, k});
    int64_t m = rows.shape()[0];
    Tensor wc = toContiguousF32(wt);
    Tensor bc = b.defined() ? toContiguousF32(b) : Tensor();
    std::vector<int64_t> dims = x.shape().dims();
    dims.back() = n;
    Tensor out = claimOut(std::move(dst), Shape(dims), DType::F32);
    auto run = [&](const TileConfig &t) {
        simdGemmPar(ops, par, rows.dataF32(), wc.dataF32(),
                    out.dataF32(), m, k, n,
                    bc.defined() ? bc.dataF32() : nullptr, t, epi);
    };
    run(chooseTile(ops, "linear", simd::gemmTileCandidates(ops.level), m,
                   k, n, parThreads(par), run));
    return out;
}

Tensor
simdBmm(const SimdOps &ops, const Tensor &a, const Tensor &b, Tensor dst,
        const ParallelRegion *par)
{
    if (a.shape().rank() != 3 || b.shape().rank() != 3)
        throw std::runtime_error("simd bmm: rank-3 inputs required");
    int64_t bs = a.shape()[0];
    int64_t m = a.shape()[1], k = a.shape()[2], n = b.shape()[2];
    if (b.shape()[0] != bs || b.shape()[1] != k)
        throw std::runtime_error("simd bmm: shape mismatch");
    Tensor ac = toContiguousF32(a);
    Tensor bc = toContiguousF32(b);
    Tensor out = claimOut(std::move(dst), Shape{bs, m, n}, DType::F32);
    const float *pa = ac.dataF32();
    const float *pb = bc.dataF32();
    float *po = out.dataF32();
    // Tune on batch item 0 (every item has the same shape), then run
    // the whole batch with the chosen tile.
    auto run0 = [&](const TileConfig &t) {
        ops.gemmF32(pa, pb, po, m, k, n, nullptr, t);
    };
    if (parThreads(par) > 1 && bs > 1) {
        // One batch item per shard, each running the serial kernel —
        // so the tile decision is the serial one (threads key 1, the
        // same entry the intra-op-off path tunes and replays).
        TileConfig tile = chooseTile(
            ops, "bmm", simd::gemmTileCandidates(ops.level), m, k, n, 1,
            run0);
        par->run(static_cast<size_t>(bs), [&](size_t i, int) {
            ops.gemmF32(pa + static_cast<int64_t>(i) * m * k,
                        pb + static_cast<int64_t>(i) * k * n,
                        po + static_cast<int64_t>(i) * m * n, m, k, n,
                        nullptr, tile);
        });
        return out;
    }
    // Serial, or a single batch item: macro-tile sharding inside the
    // one GEMM instead (simdGemmPar degrades to the serial kernel
    // when the region is absent or the problem is small).
    auto runPar = [&](const TileConfig &t) {
        simdGemmPar(ops, par, pa, pb, po, m, k, n, nullptr, t);
    };
    TileConfig tile =
        bs > 0 ? chooseTile(ops, "bmm",
                            simd::gemmTileCandidates(ops.level), m, k, n,
                            parThreads(par), runPar)
               : TileConfig{};
    for (int64_t i = 0; i < bs; ++i)
        simdGemmPar(ops, par, pa + i * m * k, pb + i * k * n,
                    po + i * m * n, m, k, n, nullptr, tile);
    return out;
}

Tensor
simdConv2d(const SimdOps &ops, const Tensor &x, const Tensor &w,
           const Tensor &b, int stride, int padding, int groups,
           const sc::UnaryStage *stages, size_t nStages, Tensor dst,
           const ParallelRegion *par)
{
    if (x.shape().rank() != 4 || w.shape().rank() != 4)
        throw std::runtime_error("simd conv2d: NCHW input and FCRS "
                                 "weight");
    int64_t n = x.shape()[0], c = x.shape()[1];
    int64_t h = x.shape()[2], wd = x.shape()[3];
    int64_t f = w.shape()[0], cg = w.shape()[1];
    int64_t r = w.shape()[2], s = w.shape()[3];
    if (groups <= 0 || c != cg * groups)
        throw std::runtime_error("simd conv2d: channel/group mismatch");
    if (f % groups != 0)
        throw std::runtime_error(
            "simd conv2d: filters not divisible by groups");
    int64_t oh = (h + 2 * padding - r) / stride + 1;
    int64_t ow = (wd + 2 * padding - s) / stride + 1;
    int64_t fg = f / groups;

    Tensor xc = toContiguousF32(x);
    Tensor wc = toContiguousF32(w);
    Tensor bc = b.defined() ? toContiguousF32(b) : Tensor();
    const float *px = xc.dataF32();
    const float *pw = wc.dataF32();
    const float *pb = bc.defined() ? bc.dataF32() : nullptr;
    Tensor out = claimOut(std::move(dst), Shape{n, f, oh, ow}, DType::F32);
    float *po = out.dataF32();

    // im2col per (image, group), then one GEMM per group with the
    // filter bias and the point-wise stages in the epilogue:
    // W[fg, patch] @ col[patch, oh*ow] -> out rows.
    int64_t patch = cg * r * s;
    auto fillCol = [&](int64_t img, int g, float *col) {
        for (int64_t cc = 0; cc < cg; ++cc) {
            const float *chan = px + (img * c + g * cg + cc) * h * wd;
            for (int64_t rr = 0; rr < r; ++rr)
                for (int64_t ss = 0; ss < s; ++ss) {
                    float *crow = col + ((cc * r + rr) * s + ss) * oh * ow;
                    for (int64_t oy = 0; oy < oh; ++oy) {
                        int64_t iy = oy * stride - padding + rr;
                        for (int64_t ox = 0; ox < ow; ++ox) {
                            int64_t ix = ox * stride - padding + ss;
                            crow[oy * ow + ox] =
                                iy >= 0 && iy < h && ix >= 0 && ix < wd
                                    ? chan[iy * wd + ix]
                                    : 0.0f;
                        }
                    }
                }
        }
    };
    // The default tile: every candidate computes the same bits, and a
    // conv shape is not worth a tuning entry per layer.
    const TileConfig tile = simd::gemmTileCandidates(ops.level)[0];
    auto gemm = [&](int64_t img, int g, const float *col,
                    const ParallelRegion *region) {
        Epilogue epi{pb ? pb + g * fg : nullptr, stages, nStages};
        simdGemmPar(ops, region, pw + g * fg * patch, col,
                    po + (img * f + g * fg) * oh * ow, fg, patch, oh * ow,
                    nullptr, tile, epi);
    };
    // Two sharding shapes, both bit-identical to the serial loop: with
    // several (image, group) instances each shard runs ONE instance's
    // im2col + GEMM start to finish (its col buffer lives in the
    // worker's scratch); a single instance instead shards the one
    // GEMM's macro-tiles, reading a shared col buffer.
    if (parThreads(par) > 1 && n * groups > 1) {
        par->run(static_cast<size_t>(n * groups), [&](size_t inst, int) {
            int64_t img = static_cast<int64_t>(inst) / groups;
            int g = static_cast<int>(inst % static_cast<size_t>(groups));
            Tensor colT = scratchEmpty(Shape{patch, oh * ow}, DType::F32);
            fillCol(img, g, colT.dataF32());
            gemm(img, g, colT.dataF32(), nullptr);
        });
        return out;
    }
    Tensor colT = scratchEmpty(Shape{patch, oh * ow}, DType::F32);
    for (int64_t img = 0; img < n; ++img)
        for (int g = 0; g < groups; ++g) {
            fillCol(img, g, colT.dataF32());
            gemm(img, g, colT.dataF32(), par);
        }
    return out;
}

/**
 * Pack w[N,K] row-major into wt[K,N] row-major with a 32x32 blocked
 * raw-pointer transpose. The generic Tensor::contiguous() path
 * decomposes a strided flat index per element, which costs more than
 * the GEMM itself for mid-sized weights.
 */
void
packTranspose(const float *w, float *wt, int64_t n, int64_t k)
{
    constexpr int64_t kBlk = 32;
    for (int64_t j0 = 0; j0 < n; j0 += kBlk) {
        int64_t jmax = j0 + kBlk < n ? j0 + kBlk : n;
        for (int64_t k0 = 0; k0 < k; k0 += kBlk) {
            int64_t kmax = k0 + kBlk < k ? k0 + kBlk : k;
            for (int64_t j = j0; j < jmax; ++j)
                for (int64_t kk = k0; kk < kmax; ++kk)
                    wt[kk * n + j] = w[j * k + kk];
        }
    }
}

// ----- normalization / softmax -------------------------------------------

Tensor
simdLayerNorm(const SimdOps &ops, const Tensor &x, const Tensor &gamma,
              const Tensor &beta, float eps, Tensor dst)
{
    // The vector kernel wants both affine operands.
    if (!gamma.defined() || !beta.defined())
        return kernels::layerNorm(x, gamma, beta, eps, std::move(dst));
    int64_t d = x.shape().dim(-1);
    Tensor xc = toContiguousF32(x);
    Tensor gc = toContiguousF32(gamma);
    Tensor bc = toContiguousF32(beta);
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    ops.layerNormRows(xc.dataF32(), gc.dataF32(), bc.dataF32(), eps,
                      xc.numel() / d, d, out.dataF32());
    return out;
}

/**
 * Inference batch norm with the per-channel affine hoisted out of the
 * image loop (the reference recomputes scale/shift for every image).
 * Same float expressions per element: bit-identical to reference.
 */
Tensor
batchNormHoisted(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                 const Tensor &mean, const Tensor &var, float eps,
                 Tensor dst)
{
    if (x.shape().rank() != 4)
        throw std::runtime_error("batchNorm2d: NCHW input required");
    int64_t n = x.shape()[0], c = x.shape()[1];
    int64_t hw = x.shape()[2] * x.shape()[3];
    Tensor xc = toContiguousF32(x);
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    const float *px = xc.dataF32();
    float *po = out.dataF32();
    Tensor mc = toContiguousF32(mean);
    Tensor vc = toContiguousF32(var);
    Tensor gc = gamma.defined() ? toContiguousF32(gamma) : Tensor();
    Tensor bc = beta.defined() ? toContiguousF32(beta) : Tensor();
    const float *pm = mc.dataF32();
    const float *pv = vc.dataF32();
    const float *pg = gc.defined() ? gc.dataF32() : nullptr;
    const float *pb = bc.defined() ? bc.dataF32() : nullptr;

    Tensor affines = scratchEmpty(Shape{2, c}, DType::F32);
    float *scale = affines.dataF32();
    float *shift = scale + c;
    for (int64_t cc = 0; cc < c; ++cc) {
        float inv = 1.0f / std::sqrt(pv[cc] + eps);
        float s = pg ? pg[cc] * inv : inv;
        scale[cc] = s;
        shift[cc] = (pb ? pb[cc] : 0.0f) - pm[cc] * s;
    }
    for (int64_t img = 0; img < n; ++img)
        for (int64_t cc = 0; cc < c; ++cc) {
            const float s = scale[cc];
            const float t = shift[cc];
            const float *row = px + (img * c + cc) * hw;
            float *orow = po + (img * c + cc) * hw;
            for (int64_t j = 0; j < hw; ++j)
                orow[j] = row[j] * s + t;
        }
    return out;
}

/** Softmax over the last dim as a direct rows loop, skipping the
 *  reference's permute/contiguous round trip. Bit-identical. */
Tensor
softmaxLastDim(const Tensor &x, int dim, Tensor dst)
{
    int r = static_cast<int>(x.shape().rank());
    int nd = dim < 0 ? dim + r : dim;
    if (nd != r - 1 || !fastF32(x))
        return kernels::softmax(x, dim, std::move(dst));
    int64_t d = x.shape().dim(-1);
    int64_t rows = x.numel() / d;
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    const float *px = x.dataF32();
    float *po = out.dataF32();
    for (int64_t i = 0; i < rows; ++i) {
        const float *row = px + i * d;
        float *orow = po + i * d;
        float mx = row[0];
        for (int64_t j = 1; j < d; ++j)
            mx = mx < row[j] ? row[j] : mx;
        float sum = 0.0f;
        for (int64_t j = 0; j < d; ++j) {
            orow[j] = std::exp(row[j] - mx);
            sum += orow[j];
        }
        float inv = 1.0f / sum;
        for (int64_t j = 0; j < d; ++j)
            orow[j] *= inv;
    }
    return out;
}

// ----- element-wise ------------------------------------------------------

Tensor
simdBinary(const SimdOps &ops, int op, const Tensor &a, const Tensor &b,
           Tensor dst)
{
    if (!fastF32(a) || !fastF32(b) || !(a.shape() == b.shape())) {
        // Broadcasts and other dtypes/layouts: the reference kernels.
        switch (op) {
        case 0: return kernels::add(a, b, std::move(dst));
        case 1: return kernels::sub(a, b, std::move(dst));
        case 2: return kernels::mul(a, b, std::move(dst));
        default: return kernels::div(a, b, std::move(dst));
        }
    }
    Tensor out = claimOut(std::move(dst), a.shape(), DType::F32);
    ops.binaryOp(op, a.dataF32(), b.dataF32(), out.dataF32(), a.numel());
    return out;
}

/** One contiguous-F32 sweep of @p f (inlined into a tight loop). */
template <class F>
Tensor
sweep(const Tensor &x, Tensor dst, F f)
{
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    const float *px = x.dataF32();
    float *po = out.dataF32();
    const int64_t n = x.numel();
    for (int64_t i = 0; i < n; ++i)
        po[i] = f(px[i]);
    return out;
}

/**
 * One point-wise stage over a whole tensor: the vector kernels for
 * relu / add-scalar / mul-scalar, a raw-pointer sweep of the shared
 * scalar expression for the transcendental ones (the reference pays a
 * std::function call and a strided index decomposition per element).
 * Same expression per element as the reference: bit-identical.
 */
Tensor
simdUnary(const SimdOps &ops, const sc::UnaryStage &s, const Tensor &x,
          Tensor dst)
{
    if (!fastF32(x)) {
        switch (s.kind) {
        case sc::UnaryKind::Relu: return kernels::relu(x, std::move(dst));
        case sc::UnaryKind::Gelu: return kernels::gelu(x, std::move(dst));
        case sc::UnaryKind::Silu: return kernels::silu(x, std::move(dst));
        case sc::UnaryKind::Sigmoid:
            return kernels::sigmoid(x, std::move(dst));
        case sc::UnaryKind::Tanh:
            return kernels::tanhOp(x, std::move(dst));
        case sc::UnaryKind::Exp: return kernels::expOp(x, std::move(dst));
        case sc::UnaryKind::AddScalar:
            return kernels::addScalar(x, s.scalar, std::move(dst));
        case sc::UnaryKind::MulScalar:
            return kernels::mulScalar(x, s.scalar, std::move(dst));
        }
    }
    // One lambda type per stage, so each sweep inlines its expression
    // (a shared function-pointer instantiation would call per element).
    switch (s.kind) {
    case sc::UnaryKind::Gelu:
        return sweep(x, std::move(dst), [](float v) { return sc::gelu(v); });
    case sc::UnaryKind::Silu:
        return sweep(x, std::move(dst), [](float v) { return sc::silu(v); });
    case sc::UnaryKind::Sigmoid:
        return sweep(x, std::move(dst),
                     [](float v) { return sc::sigmoid(v); });
    case sc::UnaryKind::Tanh:
        return sweep(x, std::move(dst),
                     [](float v) { return sc::tanhOp(v); });
    case sc::UnaryKind::Exp:
        return sweep(x, std::move(dst), [](float v) { return sc::expOp(v); });
    default: break;
    }
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    if (s.kind == sc::UnaryKind::Relu)
        ops.relu(x.dataF32(), out.dataF32(), x.numel());
    else if (s.kind == sc::UnaryKind::AddScalar)
        ops.addScalar(x.dataF32(), s.scalar, out.dataF32(), x.numel());
    else
        ops.mulScalar(x.dataF32(), s.scalar, out.dataF32(), x.numel());
    return out;
}

// ----- int8 GEMM ---------------------------------------------------------

/** The active layout of an int8 weight for @p ops: dot-interleaved
 *  when the level has a dot unit, else the [K,N] pack itself. The
 *  tensor keeps the [K,N] shape — the layout is a raw-byte contract
 *  between packDotInterleave and gemmI8, not a shape change. */
Tensor
packInt8ForOps(const SimdOps &ops, const Tensor &wtq)
{
    Tensor wc = toContiguous(wtq);
    if (!ops.int8Dot)
        return wc;
    Tensor packed(wtq.shape(), DType::I8);
    simd::packDotInterleave(wc.dataI8(), packed.dataI8(), wtq.shape()[0],
                            wtq.shape()[1]);
    return packed;
}

/**
 * Raw i8 x i8 -> i32 accumulators via the tuned SIMD kernel, then
 * @p finish(i0, rows) on each finished row block. @p wPacked must
 * already be in packInt8ForOps layout. A region shards the output into
 * row blocks (A/C slices; the weight layout is position-independent
 * in M, so shards stream the same packed operand). i32 accumulation
 * is exact, so any row partition is bit-identical to the serial sweep.
 */
template <class Finish>
void
simdInt8Acc(const SimdOps &ops, const ParallelRegion *par,
            const int8_t *xq, const int8_t *wPacked, int32_t *acc,
            int64_t m, int64_t k, int64_t n, Finish finish)
{
    const int threads = parThreads(par);
    const std::vector<TileConfig> &cands =
        simd::int8TileCandidates(ops.level);
    if (threads <= 1 || m <= 1 || 2 * m * n * k < kParMinFlops) {
        auto run = [&](const TileConfig &t) {
            ops.gemmI8(xq, wPacked, acc, m, k, n, t);
            finish(int64_t(0), m);
        };
        run(chooseTile(ops, "int8_linear", cands, m, k, n, 1, run));
        return;
    }
    const int64_t block = (m + threads - 1) / threads;
    const int64_t nBlocks = (m + block - 1) / block;
    auto run = [&](const TileConfig &t) {
        par->run(static_cast<size_t>(nBlocks), [&](size_t s, int) {
            const int64_t i0 = static_cast<int64_t>(s) * block;
            const int64_t rows = m - i0 < block ? m - i0 : block;
            ops.gemmI8(xq + i0 * k, wPacked, acc + i0 * n, rows, k, n, t);
            finish(i0, rows);
        });
    };
    run(chooseTile(ops, "int8_linear", cands, m, k, n, threads, run));
}

Tensor
simdInt8Requant(const SimdOps &ops, const Tensor &xq, float xScale,
                const Tensor &wPacked, const Tensor &wScales,
                const Tensor &bias, const sc::UnaryStage *stages,
                size_t nStages, Tensor dst, const ParallelRegion *par)
{
    int64_t k = wPacked.shape()[0], n = wPacked.shape()[1];
    int64_t m = xq.numel() / k;
    Tensor xc = toContiguous(xq);
    std::vector<int64_t> dims = xq.shape().dims();
    dims.back() = n;
    Tensor out = claimOut(std::move(dst), Shape(dims), DType::F32);
    Tensor accT = scratchEmpty(Shape{m, n}, DType::I32);
    Tensor scales = toContiguousF32(wScales);
    Tensor bc = bias.defined() ? toContiguousF32(bias) : Tensor();
    const int32_t *pa = accT.dataI32();
    const float *ps = scales.dataF32();
    const float *pb = bc.defined() ? bc.dataF32() : nullptr;
    float *po = out.dataF32();
    // The shared epilogue expression (requantOne + bias + stages): i32
    // accumulation is exact, so every int8 kernel that reaches it
    // writes the same bits.
    simdInt8Acc(ops, par, xc.dataI8(), wPacked.dataI8(), accT.dataI32(),
                m, k, n, [&](int64_t i0, int64_t rows) {
                    for (int64_t i = i0; i < i0 + rows; ++i)
                        for (int64_t j = 0; j < n; ++j) {
                            float v = kq::requantOne(pa[i * n + j],
                                                     xScale, ps[j]);
                            if (pb)
                                v += pb[j];
                            po[i * n + j] =
                                sc::applyStages(stages, nStages, v);
                        }
                });
    return out;
}

// ----- backend assembly --------------------------------------------------

const Tensor &
packedLinearWeight(const Node &n, ParamStore &params)
{
    return params.derived(n, 0, [&] {
        return kernels::sd::packWeightTranspose(params.get(n, 0));
    });
}

KernelFn
unaryKernel(const SimdOps &ops, sc::UnaryKind kind)
{
    return [&ops, kind](const KernelContext &c) {
        sc::UnaryStage s;
        s.kind = kind;
        return singleOutput(simdUnary(ops, s, c.in(0), c.out(0)));
    };
}

Backend
buildSimdBackend(const SimdOps &ops)
{
    Backend b("simd", &referenceBackend());

    // GEMM family. Each entry forwards c.par — the executor's intra-op
    // region, or null for the (default) serial path.
    b.registerKernel(OpKind::MatMul, [&ops](const KernelContext &c) {
        return singleOutput(
            simdMatmul(ops, c.in(0), c.in(1), c.out(0), c.par));
    });
    b.registerKernel(OpKind::Linear, [&ops](const KernelContext &c) {
        if (c.node.attrs.getI("wq8", 0))
            // Weight-only int8: tiled GEMM over the packed [K,N] int8
            // weight with the per-channel rescale + bias fused into
            // the tile write-out.
            return singleOutput(kq::w8LinearPacked(
                c.in(0), quant::packedWeight(c.node, c.params),
                quant::weightScales(c.node, c.params), c.optBias(),
                nullptr, 0, c.out(0), c.par));
        return singleOutput(simdLinearPacked(
            ops, c.in(0), packedLinearWeight(c.node, c.params),
            c.optBias(), {}, c.out(0), c.par));
    });
    b.registerKernel(OpKind::BMM, [&ops](const KernelContext &c) {
        return singleOutput(
            simdBmm(ops, c.in(0), c.in(1), c.out(0), c.par));
    });
    // The legacy modeled (non-executable) form is declined, so it
    // resolves to — and its span names — the reference kernel.
    b.registerKernel(
        OpKind::Int8Linear,
        [&ops](const KernelContext &c) {
            const Tensor &wp = kernels::sd::int8Weight(ops, c.node, c.params);
            if (c.node.attrs.getI("requant", 0))
                return singleOutput(simdInt8Requant(
                    ops, c.in(0), kq::scaleValue(c.in(1)), wp,
                    quant::weightScales(c.node, c.params), c.optBias(),
                    nullptr, 0, c.out(0), c.par));
            int64_t k = wp.shape()[0], n = wp.shape()[1];
            const Tensor &xq = c.in(0);
            Tensor xc = toContiguous(xq);
            std::vector<int64_t> dims = xq.shape().dims();
            dims.back() = n;
            Tensor out = claimOut(c.out(0), Shape(dims), DType::I32);
            simdInt8Acc(ops, c.par, xc.dataI8(), wp.dataI8(), out.dataI32(),
                        xq.numel() / k, k, n, [](int64_t, int64_t) {});
            return singleOutput(std::move(out));
        },
        [](const Node &n) { return n.attrs.getI("executable", 0) != 0; });

    // Normalization and logits.
    b.registerKernel(OpKind::LayerNorm, [&ops](const KernelContext &c) {
        return singleOutput(simdLayerNorm(ops, c.in(0), c.param(0),
                                          c.param(1),
                                          c.attrFloat("eps", 1e-5),
                                          c.out(0)));
    });
    KernelFn batchNorm = [](const KernelContext &c) {
        return singleOutput(batchNormHoisted(
            c.in(0), c.param(0), c.param(1), c.param(2), c.param(3),
            c.attrFloat("eps", 1e-5), c.out(0)));
    };
    b.registerKernel(OpKind::BatchNorm2d, batchNorm);
    b.registerKernel(OpKind::FrozenBatchNorm2d, std::move(batchNorm));
    // Softmax over any other dim is declined to reference. Runtime-only
    // fallbacks (non-contiguous or non-f32 inputs here, broadcasting
    // binary ops, ...) run reference code inside the simd kernel and
    // are attributed to simd.
    b.registerKernel(
        OpKind::Softmax,
        [](const KernelContext &c) {
            return singleOutput(
                softmaxLastDim(c.in(0), c.attrInt("dim"), c.out(0)));
        },
        [](const Node &n) {
            int64_t r = n.outShapes[0].rank();
            int64_t d = n.attrs.getI("dim", 0);
            return (d < 0 ? d + r : d) == r - 1;
        });

    // Activations and element-wise arithmetic.
    b.registerKernel(OpKind::ReLU, unaryKernel(ops, sc::UnaryKind::Relu));
    b.registerKernel(OpKind::GELU, unaryKernel(ops, sc::UnaryKind::Gelu));
    b.registerKernel(OpKind::SiLU, unaryKernel(ops, sc::UnaryKind::Silu));
    b.registerKernel(OpKind::Sigmoid,
                     unaryKernel(ops, sc::UnaryKind::Sigmoid));
    b.registerKernel(OpKind::Tanh, unaryKernel(ops, sc::UnaryKind::Tanh));
    b.registerKernel(OpKind::Exp, unaryKernel(ops, sc::UnaryKind::Exp));
    b.registerKernel(OpKind::Add, [&ops](const KernelContext &c) {
        if (c.numInputs() == 1) {
            sc::UnaryStage s{sc::UnaryKind::AddScalar,
                             c.attrFloat("scalar")};
            return singleOutput(simdUnary(ops, s, c.in(0), c.out(0)));
        }
        return singleOutput(
            simdBinary(ops, 0, c.in(0), c.in(1), c.out(0)));
    });
    b.registerKernel(OpKind::Sub, [&ops](const KernelContext &c) {
        return singleOutput(
            simdBinary(ops, 1, c.in(0), c.in(1), c.out(0)));
    });
    b.registerKernel(OpKind::Mul, [&ops](const KernelContext &c) {
        if (c.numInputs() == 1) {
            sc::UnaryStage s{sc::UnaryKind::MulScalar,
                             c.attrFloat("scalar")};
            return singleOutput(simdUnary(ops, s, c.in(0), c.out(0)));
        }
        return singleOutput(
            simdBinary(ops, 2, c.in(0), c.in(1), c.out(0)));
    });
    b.registerKernel(OpKind::Div, [&ops](const KernelContext &c) {
        return singleOutput(
            simdBinary(ops, 3, c.in(0), c.in(1), c.out(0)));
    });

    // Executable fusion: merged Conv+BN affines and GEMM epilogues on
    // this level's GEMM, single-pass point-wise chains; chain
    // interpretation through the active backend for everything else.
    b.registerKernel(OpKind::Fused, [&ops](const KernelContext &c) {
        return evalFusedSimd(c, ops);
    });

    // Warm-up: pre-build every weight layout the kernels above memoize
    // (packed f32 / int8 / dot-interleaved weights, top-level and
    // fused members) and the merged Conv+BN affines, so the first
    // request's measured kernel time is the kernels alone.
    b.setPrepare([&ops](const Graph &g, ParamStore &params) {
        auto prepareNode = [&](const Node &n) {
            if (n.kind == OpKind::Linear && !n.paramShapes.empty()) {
                if (n.attrs.getI("wq8", 0))
                    quant::packedWeight(n, params);
                else
                    packedLinearWeight(n, params);
            }
            if (n.kind == OpKind::Int8Linear &&
                n.attrs.getI("executable", 0))
                kernels::sd::int8Weight(ops, n, params);
            if ((n.kind == OpKind::Dequantize ||
                 n.kind == OpKind::Quantize) &&
                n.attrs.getI("executable", 0) && !n.paramShapes.empty())
                quant::weightScales(n, params);
        };
        for (const Node &n : g.nodes()) {
            prepareNode(n);
            for (const Node &m : n.fusedBody)
                prepareNode(m);
        }
        prepareFusedGroups(g, params);
    });
    return b;
}

/** Ops table for the free-function entries: the active level's
 *  (activeIsa() is always a supported, hence compiled-in, level). */
const SimdOps &
activeOps()
{
    return *simd::simdOpsFor(platform::activeIsa());
}

}  // namespace

const Backend &
simdBackend()
{
    static const Backend backend = buildSimdBackend(activeOps());
    return backend;
}

Backend
makeSimdBackend(platform::IsaLevel level)
{
    // Clamp to what this host/build can actually execute: a level
    // above hardware support would register kernels that fault, and a
    // level whose TU was not compiled in has no table.
    return buildSimdBackend(*simd::simdOpsFor(platform::clampIsa(level)));
}

namespace kernels {
namespace sd {

Tensor
matmul(const Tensor &a, const Tensor &b, Tensor dst,
       const ParallelRegion *par)
{
    return simdMatmul(activeOps(), a, b, std::move(dst), par);
}

Tensor
matmulTiled(const Tensor &a, const Tensor &b, const simd::TileConfig &tile,
            Tensor dst)
{
    if (a.shape().rank() != 2 || b.shape().rank() != 2)
        throw std::runtime_error("simd matmul: rank-2 inputs required");
    int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
    Tensor ac = toContiguousF32(a);
    Tensor bc = toContiguousF32(b);
    Tensor out = claimOut(std::move(dst), Shape{m, n}, DType::F32);
    activeOps().gemmF32(ac.dataF32(), bc.dataF32(), out.dataF32(), m, k,
                        n, nullptr, tile);
    return out;
}

Tensor
linearPacked(const Tensor &x, const Tensor &wt, const Tensor &b,
             Tensor dst, const ParallelRegion *par)
{
    return simdLinearPacked(activeOps(), x, wt, b, {}, std::move(dst),
                            par);
}

Tensor
linearPackedEpi(const simd::SimdOps &ops, const Tensor &x,
                const Tensor &wt, const Tensor &b,
                const scalar::UnaryStage *stages, size_t nStages,
                Tensor dst, const ParallelRegion *par)
{
    return simdLinearPacked(ops, x, wt, b,
                            Epilogue{nullptr, stages, nStages},
                            std::move(dst), par);
}

Tensor
bmm(const Tensor &a, const Tensor &b, Tensor dst,
    const ParallelRegion *par)
{
    return simdBmm(activeOps(), a, b, std::move(dst), par);
}

Tensor
conv2dEpi(const simd::SimdOps &ops, const Tensor &x, const Tensor &w,
          const Tensor &b, int stride, int padding, int groups,
          const scalar::UnaryStage *stages, size_t nStages, Tensor dst,
          const ParallelRegion *par)
{
    return simdConv2d(ops, x, w, b, stride, padding, groups, stages,
                      nStages, std::move(dst), par);
}

Tensor
packWeightTranspose(const Tensor &w)
{
    if (w.shape().rank() != 2)
        throw std::runtime_error("packWeightTranspose: [N,K] required");
    int64_t n = w.shape()[0], k = w.shape()[1];
    Tensor wc = toContiguousF32(w);
    Tensor wt(Shape{k, n}, DType::F32);
    packTranspose(wc.dataF32(), wt.dataF32(), n, k);
    return wt;
}

Tensor
layerNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
          float eps, Tensor dst)
{
    return simdLayerNorm(activeOps(), x, gamma, beta, eps, std::move(dst));
}

Tensor
batchNorm2d(const Tensor &x, const Tensor &gamma, const Tensor &beta,
            const Tensor &mean, const Tensor &var, float eps, Tensor dst)
{
    return batchNormHoisted(x, gamma, beta, mean, var, eps,
                            std::move(dst));
}

Tensor
softmax(const Tensor &x, int dim, Tensor dst)
{
    return softmaxLastDim(x, dim, std::move(dst));
}

Tensor
unary(const scalar::UnaryStage &stage, const Tensor &x, Tensor dst)
{
    return simdUnary(activeOps(), stage, x, std::move(dst));
}

Tensor
relu(const Tensor &x, Tensor dst)
{
    return unary({scalar::UnaryKind::Relu, 0.0f}, x, std::move(dst));
}

Tensor
addScalar(const Tensor &x, float s, Tensor dst)
{
    return unary({scalar::UnaryKind::AddScalar, s}, x, std::move(dst));
}

Tensor
mulScalar(const Tensor &x, float s, Tensor dst)
{
    return unary({scalar::UnaryKind::MulScalar, s}, x, std::move(dst));
}

Tensor
add(const Tensor &a, const Tensor &b, Tensor dst)
{
    return simdBinary(activeOps(), 0, a, b, std::move(dst));
}

Tensor
sub(const Tensor &a, const Tensor &b, Tensor dst)
{
    return simdBinary(activeOps(), 1, a, b, std::move(dst));
}

Tensor
mul(const Tensor &a, const Tensor &b, Tensor dst)
{
    return simdBinary(activeOps(), 2, a, b, std::move(dst));
}

Tensor
div(const Tensor &a, const Tensor &b, Tensor dst)
{
    return simdBinary(activeOps(), 3, a, b, std::move(dst));
}

Tensor
packInt8Weight(const Tensor &wtq)
{
    return packInt8ForOps(activeOps(), wtq);
}

const Tensor &
int8Weight(const simd::SimdOps &ops, const Node &n, ParamStore &params)
{
    const Tensor &wtq = quant::packedWeight(n, params);
    if (!ops.int8Dot)
        return wtq;
    return params.derived(n, kDotWeightSlot,
                          [&] { return packInt8ForOps(ops, wtq); });
}

Tensor
int8LinearRequant(const Tensor &xq, float xScale, const Tensor &wPacked,
                  const Tensor &wScales, const Tensor &bias, Tensor dst,
                  const ParallelRegion *par)
{
    return simdInt8Requant(activeOps(), xq, xScale, wPacked, wScales, bias,
                           nullptr, 0, std::move(dst), par);
}

Tensor
int8LinearRequantEpi(const simd::SimdOps &ops, const Tensor &xq,
                     float xScale, const Tensor &wPacked,
                     const Tensor &wScales, const Tensor &bias,
                     const scalar::UnaryStage *stages, size_t nStages,
                     Tensor dst, const ParallelRegion *par)
{
    return simdInt8Requant(ops, xq, xScale, wPacked, wScales, bias, stages,
                           nStages, std::move(dst), par);
}

}  // namespace sd
}  // namespace kernels
}  // namespace ngb
