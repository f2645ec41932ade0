#include "quant/quant_kernels.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ops/kernels.h"
#include "runtime/intraop.h"
#include "tensor/scratch.h"

namespace ngb {
namespace kernels {
namespace qnt {

namespace {

constexpr int64_t kMR = 4;   ///< output rows per register tile
constexpr int64_t kNR = 16;  ///< output cols per register tile

/**
 * f32-accumulator tile loop for the weight-only kernels: A is f32, B
 * is int8 dequantized element-wise inside the core. Accumulation stays
 * k-ascending with no reassociation or zero-skipping (in both the tile
 * body and the tails), matching the naive w8Linear loop exactly, so
 * the packed and row-layout weight-only kernels are bit-identical.
 */
template <class FinishFn>
void
w8TileLoop(const float *A, const int8_t *B, float *C, int64_t M,
           int64_t K, int64_t N, FinishFn finish)
{
    int64_t i = 0;
    for (; i + kMR <= M; i += kMR) {
        int64_t j = 0;
        for (; j + kNR <= N; j += kNR) {
            float acc[kMR][kNR] = {};
            for (int64_t k = 0; k < K; ++k) {
                const int8_t *brow = B + k * N + j;
                float av[kMR];
                for (int64_t r = 0; r < kMR; ++r)
                    av[r] = A[(i + r) * K + k];
                for (int64_t jj = 0; jj < kNR; ++jj) {
                    float bv = static_cast<float>(brow[jj]);
                    for (int64_t r = 0; r < kMR; ++r)
                        acc[r][jj] += av[r] * bv;
                }
            }
            for (int64_t r = 0; r < kMR; ++r) {
                float *crow = C + (i + r) * N + j;
                for (int64_t jj = 0; jj < kNR; ++jj)
                    crow[jj] = finish(j + jj, acc[r][jj]);
            }
        }
        for (; j < N; ++j) {
            for (int64_t r = 0; r < kMR; ++r) {
                float acc = 0.0f;
                for (int64_t k = 0; k < K; ++k)
                    acc += A[(i + r) * K + k] *
                           static_cast<float>(B[k * N + j]);
                C[(i + r) * N + j] = finish(j, acc);
            }
        }
    }
    for (; i < M; ++i) {
        for (int64_t j = 0; j < N; ++j) {
            float acc = 0.0f;
            for (int64_t k = 0; k < K; ++k)
                acc += A[i * K + k] * static_cast<float>(B[k * N + j]);
            C[i * N + j] = finish(j, acc);
        }
    }
}

/// Below this the sharding overhead exceeds the GEMM itself (same
/// threshold as the simd GEMMs).
constexpr int64_t kParMinFlops = 1 << 17;

/**
 * Run @p body(i0, rows) over kMR-aligned row blocks of [0,M), through
 * @p par when profitable, serially otherwise. Rows of the weight-only
 * GEMM are independent per-row k-ascending f32 chains, so any row
 * partition is bit-identical to the serial sweep; the K reduction is
 * never split. One block per
 * worker: the packed kernels have no panel-packing stage, so finer
 * grains would only add task overhead.
 */
template <class BodyFn>
void
shardRows(const ParallelRegion *par, int64_t m, int64_t k, int64_t n,
          BodyFn body)
{
    const int threads = par ? par->threads() : 1;
    if (threads <= 1 || m <= kMR || 2 * m * n * k < kParMinFlops) {
        body(static_cast<int64_t>(0), m);
        return;
    }
    const int64_t tiles = (m + kMR - 1) / kMR;
    const int64_t block =
        (tiles + threads - 1) / threads * kMR;
    const int64_t nBlocks = (m + block - 1) / block;
    par->run(static_cast<size_t>(nBlocks), [&](size_t s, int) {
        const int64_t i0 = static_cast<int64_t>(s) * block;
        body(i0, std::min(block, m - i0));
    });
}

int64_t
rowsOf(const Tensor &x, int64_t k, const char *who)
{
    const Shape &s = x.shape();
    if (s.rank() < 1 || s[s.rank() - 1] != k)
        throw std::runtime_error(std::string(who) +
                                 ": trailing dim must be K=" +
                                 std::to_string(k) + ", got " + s.str());
    return x.numel() / k;
}

Shape
withTrailing(const Shape &in, int64_t n)
{
    std::vector<int64_t> dims = in.dims();
    dims.back() = n;
    return Shape{dims};
}

const float *
biasPtrOf(const Tensor &bias, int64_t n, const char *who)
{
    if (!bias.defined())
        return nullptr;
    if (bias.numel() != n)
        throw std::runtime_error(std::string(who) + ": bias numel " +
                                 std::to_string(bias.numel()) +
                                 " != N=" + std::to_string(n));
    return bias.dataF32();
}

void
requireScales(const Tensor &wScales, int64_t n, const char *who)
{
    if (wScales.numel() != n)
        throw std::runtime_error(std::string(who) + ": scale count " +
                                 std::to_string(wScales.numel()) +
                                 " != N=" + std::to_string(n));
}

}  // namespace

float
scaleValue(const Tensor &scale)
{
    if (!scale.defined() || scale.numel() < 1)
        throw std::runtime_error("scaleValue: scale tensor required");
    float s = scale.flatAt(0);
    if (!(s > 0.0f) || !std::isfinite(s))
        throw std::runtime_error("scaleValue: non-positive scale " +
                                 std::to_string(s));
    return s;
}

std::pair<Tensor, Tensor>
quantizeActivation(const Tensor &x, Tensor dstQ, Tensor dstScale)
{
    Tensor xq = claimOut(std::move(dstQ), x.shape(), DType::I8);
    Tensor sc = claimOut(std::move(dstScale), Shape{1}, DType::F32);
    int64_t count = x.numel();
    float mx = 0.0f;
    if (x.dtype() == DType::F32 && x.isContiguous()) {
        const float *px = x.dataF32();
        for (int64_t i = 0; i < count; ++i)
            mx = std::max(mx, std::abs(px[i]));
    } else {
        for (int64_t i = 0; i < count; ++i)
            mx = std::max(mx, std::abs(x.flatAt(i)));
    }
    float scale = mx > 0.0f ? mx / 127.0f : 1.0f;
    sc.dataF32()[0] = scale;
    quantizeWithScale(x, scale, xq);
    return {std::move(xq), std::move(sc)};
}

Tensor
quantizeWithScale(const Tensor &x, float scale, Tensor dst)
{
    if (!(scale > 0.0f) || !std::isfinite(scale))
        throw std::runtime_error("quantizeWithScale: non-positive scale " +
                                 std::to_string(scale));
    Tensor out = claimOut(std::move(dst), x.shape(), DType::I8);
    int64_t count = x.numel();
    int8_t *po = out.dataI8();
    float inv = 1.0f / scale;
    if (x.dtype() == DType::F32 && x.isContiguous()) {
        const float *px = x.dataF32();
        for (int64_t i = 0; i < count; ++i)
            po[i] = satCastI8(px[i] * inv);
    } else {
        for (int64_t i = 0; i < count; ++i)
            po[i] = satCastI8(x.flatAt(i) * inv);
    }
    return out;
}

Tensor
int8AccLinear(const Tensor &xq, const Tensor &wq, Tensor dst)
{
    if (wq.shape().rank() != 2)
        throw std::runtime_error("int8AccLinear: [N,K] weight required");
    if (xq.dtype() != DType::I8 || wq.dtype() != DType::I8)
        throw std::runtime_error("int8AccLinear: int8 operands required");
    int64_t n = wq.shape()[0], k = wq.shape()[1];
    int64_t m = rowsOf(xq, k, "int8AccLinear");
    Tensor xc = toContiguous(xq);
    Tensor wc = toContiguous(wq);
    Tensor out =
        claimOut(std::move(dst), withTrailing(xq.shape(), n), DType::I32);
    const int8_t *px = xc.dataI8();
    const int8_t *pw = wc.dataI8();
    int32_t *po = out.dataI32();
    // Reference layout: one k-ascending dot per (row, channel). The i32
    // sums are exact, so this matches the tiled packed kernel bit for
    // bit despite the different loop structure.
    for (int64_t i = 0; i < m; ++i) {
        const int8_t *xrow = px + i * k;
        for (int64_t j = 0; j < n; ++j) {
            const int8_t *wrow = pw + j * k;
            int32_t acc = 0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += static_cast<int32_t>(xrow[kk]) *
                       static_cast<int32_t>(wrow[kk]);
            po[i * n + j] = acc;
        }
    }
    return out;
}

Tensor
requantize(const Tensor &acc, float xScale, const Tensor &wScales,
           const Tensor &bias, Tensor dst)
{
    if (acc.dtype() != DType::I32)
        throw std::runtime_error("requantize: i32 accumulators required");
    int64_t n = acc.shape()[acc.shape().rank() - 1];
    requireScales(wScales, n, "requantize");
    const float *pb = biasPtrOf(bias, n, "requantize");
    Tensor ac = toContiguous(acc);
    Tensor out = claimOut(std::move(dst), acc.shape(), DType::F32);
    const int32_t *pa = ac.dataI32();
    const float *ps = wScales.dataF32();
    float *po = out.dataF32();
    int64_t rows = acc.numel() / n;
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < n; ++j) {
            float v = requantOne(pa[i * n + j], xScale, ps[j]);
            if (pb)
                v += pb[j];
            po[i * n + j] = v;
        }
    return out;
}

Tensor
int8LinearRequant(const Tensor &xq, float xScale, const Tensor &wq,
                  const Tensor &wScales, const Tensor &bias,
                  const scalar::UnaryStage *stages, size_t nStages,
                  Tensor dst)
{
    if (wq.shape().rank() != 2)
        throw std::runtime_error("int8LinearRequant: [N,K] weight "
                                 "required");
    int64_t n = wq.shape()[0], k = wq.shape()[1];
    int64_t m = rowsOf(xq, k, "int8LinearRequant");
    requireScales(wScales, n, "int8LinearRequant");
    const float *pb = biasPtrOf(bias, n, "int8LinearRequant");
    Tensor xc = toContiguous(xq);
    Tensor wc = toContiguous(wq);
    Tensor out =
        claimOut(std::move(dst), withTrailing(xq.shape(), n), DType::F32);
    const int8_t *px = xc.dataI8();
    const int8_t *pw = wc.dataI8();
    const float *ps = wScales.dataF32();
    float *po = out.dataF32();
    for (int64_t i = 0; i < m; ++i) {
        const int8_t *xrow = px + i * k;
        for (int64_t j = 0; j < n; ++j) {
            const int8_t *wrow = pw + j * k;
            int32_t acc = 0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += static_cast<int32_t>(xrow[kk]) *
                       static_cast<int32_t>(wrow[kk]);
            float v = requantOne(acc, xScale, ps[j]);
            if (pb)
                v += pb[j];
            po[i * n + j] = scalar::applyStages(stages, nStages, v);
        }
    }
    return out;
}

Tensor
w8Linear(const Tensor &x, const Tensor &wq, const Tensor &wScales,
         const Tensor &bias, Tensor dst)
{
    if (wq.shape().rank() != 2)
        throw std::runtime_error("w8Linear: [N,K] weight required");
    int64_t n = wq.shape()[0], k = wq.shape()[1];
    int64_t m = rowsOf(x, k, "w8Linear");
    requireScales(wScales, n, "w8Linear");
    const float *pb = biasPtrOf(bias, n, "w8Linear");
    Tensor xc = toContiguousF32(x);
    Tensor wc = toContiguous(wq);
    Tensor out =
        claimOut(std::move(dst), withTrailing(x.shape(), n), DType::F32);
    const float *px = xc.dataF32();
    const int8_t *pw = wc.dataI8();
    const float *ps = wScales.dataF32();
    float *po = out.dataF32();
    for (int64_t i = 0; i < m; ++i) {
        const float *xrow = px + i * k;
        for (int64_t j = 0; j < n; ++j) {
            const int8_t *wrow = pw + j * k;
            float acc = 0.0f;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += xrow[kk] * static_cast<float>(wrow[kk]);
            float v = acc * ps[j];
            if (pb)
                v += pb[j];
            po[i * n + j] = v;
        }
    }
    return out;
}

Tensor
w8LinearPacked(const Tensor &x, const Tensor &wtq, const Tensor &wScales,
               const Tensor &bias, const scalar::UnaryStage *stages,
               size_t nStages, Tensor dst, const ParallelRegion *par)
{
    if (wtq.shape().rank() != 2)
        throw std::runtime_error("w8LinearPacked: [K,N] weight required");
    int64_t k = wtq.shape()[0], n = wtq.shape()[1];
    int64_t m = rowsOf(x, k, "w8LinearPacked");
    requireScales(wScales, n, "w8LinearPacked");
    const float *pb = biasPtrOf(bias, n, "w8LinearPacked");
    const float *ps = wScales.dataF32();
    Tensor xc = toContiguousF32(x);
    Tensor out =
        claimOut(std::move(dst), withTrailing(x.shape(), n), DType::F32);
    const float *px = xc.dataF32();
    const int8_t *pw = wtq.dataI8();
    float *po = out.dataF32();
    shardRows(par, m, k, n, [&](int64_t i0, int64_t rows) {
        w8TileLoop(px + i0 * k, pw, po + i0 * n, rows, k, n,
                   [&](int64_t col, float acc) {
                       float v = acc * ps[col];
                       if (pb)
                           v += pb[col];
                       return scalar::applyStages(stages, nStages, v);
                   });
    });
    return out;
}

}  // namespace qnt
}  // namespace kernels
}  // namespace ngb
