/**
 * @file
 * The simd backend: ISA detection and override semantics, backend
 * wiring and per-op fallback, numerics differentials at every
 * host-supported dispatch level, the portable one included
 * (bit-identity where the contract promises it, tolerance where FMA
 * rounding differs),
 * tile-candidate bit-identity (what makes autotuning a pure timing
 * decision), the persistent tuning cache's round-trip and invalidation
 * rules, ISA-keyed engine caching, and the full-registry differential
 * sweep simd-vs-reference per level.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "backend_sets.h"
#include "graph/executor.h"
#include "models/registry.h"
#include "ops/backend.h"
#include "ops/kernels.h"
#include "ops/simd_backend.h"
#include "platform/cpu_features.h"
#include "platform/simd.h"
#include "platform/tuning_cache.h"
#include "quant/quant_kernels.h"
#include "quant/weight_pack.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"

namespace ngb {
namespace {

namespace kn = kernels;
namespace kq = kernels::qnt;
namespace sd = kernels::sd;
namespace pf = platform;

::testing::AssertionResult
tensorsBitIdentical(const Tensor &a, const Tensor &b)
{
    std::string diff = bitDifference({a}, {b});
    if (diff.empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << diff;
}

::testing::AssertionResult
tensorsClose(const Tensor &a, const Tensor &b, float rtol = 1e-3f,
             float atol = 1e-5f)
{
    std::string diff = closeDifference({a}, {b}, rtol, atol);
    if (diff.empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << diff;
}

// ---- ISA detection & override semantics ----------------------------------

TEST(CpuFeaturesTest, IsaNamesRoundTrip)
{
    for (pf::IsaLevel l :
         {pf::IsaLevel::Scalar, pf::IsaLevel::Neon, pf::IsaLevel::Avx2,
          pf::IsaLevel::Avx512})
        EXPECT_EQ(pf::isaFromName(pf::isaName(l)), l);
    EXPECT_EQ(pf::isaFromName("auto"), pf::detectIsa());
    try {
        pf::isaFromName("bogus");
        FAIL() << "expected isaFromName to throw";
    } catch (const std::exception &e) {
        // The error lists the valid names, so a typoed --isa is
        // self-correcting.
        EXPECT_NE(std::string(e.what()).find("scalar"),
                  std::string::npos);
    }
}

TEST(CpuFeaturesTest, SupportedLevelsAscendFromScalar)
{
    std::vector<pf::IsaLevel> levels = pf::supportedIsaLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), pf::IsaLevel::Scalar);
    for (size_t i = 1; i < levels.size(); ++i)
        EXPECT_LT(static_cast<int>(levels[i - 1]),
                  static_cast<int>(levels[i]));
    EXPECT_EQ(levels.back(), pf::detectIsa());
}

TEST(CpuFeaturesTest, ForcingSupportedLevelsWorksOveraskThrows)
{
    // Every enum value, not only the supported ones: a level above what
    // this host/build dispatches, or of the other architecture (neon on
    // x86, avx2 on aarch64), must be a loud error from setActiveIsa and
    // a clamp in makeSimdBackend — never an illegal-instruction time
    // bomb or a missing kernel table.
    IsaGuard guard;
    const std::vector<pf::IsaLevel> supported = pf::supportedIsaLevels();
    Graph g =
        models::findModel("vit_b").build(ModelConfig{1, 8, false, 0, 8});
    std::vector<Tensor> inputs = makeRequestInputs(g, 5);
    std::vector<Tensor> want = Executor(g, referenceBackend()).run(inputs);
    Tensor a = Tensor::randn(Shape{5, 19}, 1);
    Tensor b = Tensor::randn(Shape{19, 23}, 2);
    for (pf::IsaLevel l : {pf::IsaLevel::Scalar, pf::IsaLevel::Neon,
                           pf::IsaLevel::Avx2, pf::IsaLevel::Avx512}) {
        const bool ok = std::find(supported.begin(), supported.end(), l) !=
                        supported.end();
        EXPECT_EQ(pf::clampIsa(l) == l, ok) << pf::isaName(l);
        pf::setActiveIsa(pf::IsaLevel::Scalar);
        if (ok) {
            EXPECT_NO_THROW(pf::setActiveIsa(l)) << pf::isaName(l);
            EXPECT_EQ(pf::activeIsa(), l);
        } else {
            EXPECT_THROW(pf::setActiveIsa(l), std::exception)
                << pf::isaName(l);
            EXPECT_EQ(pf::activeIsa(), pf::IsaLevel::Scalar);
        }
        // Whatever level is now active, the free-function entries and
        // a backend pinned to l both run.
        EXPECT_TRUE(tensorsClose(sd::matmul(a, b), kn::matmul(a, b)))
            << pf::isaName(l);
        Backend bk = makeSimdBackend(l);
        EXPECT_EQ(closeDifference(Executor(g, bk).run(inputs), want), "")
            << pf::isaName(l);
    }
    pf::setActiveIsaName("auto");
    EXPECT_EQ(pf::activeIsa(), pf::detectIsa());
}

// ---- backend wiring & per-op fallback ------------------------------------

TEST(SimdBackendTest, RegisteredWithFallbackChainToReference)
{
    const Backend &b = findBackend("simd");
    EXPECT_EQ(b.name(), "simd");
    ASSERT_NE(b.fallback(), nullptr);
    EXPECT_EQ(b.fallback()->name(), "reference");
    EXPECT_EQ(b.fallback()->fallback(), nullptr);

    bool listed = false;
    for (const std::string &n : backendNames())
        listed = listed || n == "simd";
    EXPECT_TRUE(listed);
}

TEST(SimdBackendTest, PortableLevelIsARealKernelTable)
{
    const simd::SimdOps *ops = simd::simdOpsFor(pf::IsaLevel::Scalar);
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->level, pf::IsaLevel::Scalar);
    EXPECT_STREQ(ops->name, pf::isaName(pf::IsaLevel::Scalar));
    // 16 lanes: the default {4, 1} tile is the 4x16 register tile.
    EXPECT_EQ(ops->vectorWidthF32, 16);
    EXPECT_EQ(simd::gemmTileCandidates(pf::IsaLevel::Scalar)[0].mr, 4);
    EXPECT_EQ(simd::gemmTileCandidates(pf::IsaLevel::Scalar)[0].nv, 1);
}

TEST(SimdBackendTest, EveryLevelRegistersTheSameKernelSet)
{
    const size_t want = makeSimdBackend(pf::IsaLevel::Scalar).numKernels();
    for (pf::IsaLevel l : pf::supportedIsaLevels()) {
        Backend b = makeSimdBackend(l);
        EXPECT_EQ(b.numKernels(), want) << pf::isaName(l);
        for (OpKind k : {OpKind::MatMul, OpKind::Linear, OpKind::BMM,
                         OpKind::Int8Linear, OpKind::LayerNorm,
                         OpKind::BatchNorm2d, OpKind::Softmax,
                         OpKind::GELU, OpKind::SiLU, OpKind::ReLU,
                         OpKind::Add, OpKind::Div, OpKind::Fused})
            EXPECT_TRUE(b.handles(k))
                << pf::isaName(l) << " " << opKindName(k);
        // Never registered: conv (fused Conv+BN groups excepted),
        // pooling, layout — served per-op by reference.
        EXPECT_FALSE(b.handles(OpKind::Conv2d));
        EXPECT_NO_THROW(b.kernelFor(OpKind::Conv2d));
    }
}

// ---- per-level kernel differentials --------------------------------------

TEST(SimdKernelsTest, GemmMatchesReferenceAtEveryLevel)
{
    IsaGuard guard;
    // Shapes straddling every register tile (4x16 portable, the
    // vector widths): exact multiples, tails in M only, N only, both,
    // and degenerate single-element GEMMs.
    const int64_t shapes[][3] = {
        {1, 1, 1},   {3, 5, 7},    {8, 16, 8},  {5, 4, 64},
        {64, 33, 17}, {17, 96, 33}, {4, 16, 16}, {127, 63, 65},
        {16, 1, 16}, {2, 300, 2},
    };
    for (pf::IsaLevel l : pf::supportedIsaLevels()) {
        pf::setActiveIsa(l);
        for (const auto &s : shapes) {
            Tensor a = Tensor::randn(Shape{s[0], s[1]}, 7);
            Tensor b = Tensor::randn(Shape{s[1], s[2]}, 8);
            // FMA vs mul+add rounding: tolerance, not bit-identity.
            EXPECT_TRUE(tensorsClose(sd::matmul(a, b), kn::matmul(a, b)))
                << pf::isaName(l) << " " << s[0] << "x" << s[1] << "x"
                << s[2];
            Tensor x = Tensor::randn(Shape{2, s[0], s[1]}, 47);
            Tensor w = Tensor::randn(Shape{s[2], s[1]}, 53);  // [N,K]
            Tensor bias = Tensor::randn(Shape{s[2]}, 59);
            Tensor wt = sd::packWeightTranspose(w);
            EXPECT_TRUE(tensorsClose(sd::linearPacked(x, wt, bias),
                                     kn::linear(x, w, bias)))
                << pf::isaName(l) << " linear " << s[0] << "x" << s[1]
                << "x" << s[2];
            EXPECT_TRUE(tensorsClose(sd::linearPacked(x, wt, Tensor()),
                                     kn::linear(x, w, Tensor())))
                << pf::isaName(l) << " linear(no bias)";
            Tensor ba = Tensor::randn(Shape{3, s[0], s[1]}, 61);
            Tensor bb = Tensor::randn(Shape{3, s[1], s[2]}, 67);
            EXPECT_TRUE(tensorsClose(sd::bmm(ba, bb), kn::bmm(ba, bb)))
                << pf::isaName(l) << " bmm";
        }
        // Non-contiguous A operand (transposed view), as attention
        // builds.
        Tensor a = Tensor::randn(Shape{24, 12}, 71).transpose(0, 1);
        Tensor b = Tensor::randn(Shape{24, 20}, 72);
        EXPECT_TRUE(tensorsClose(sd::matmul(a, b), kn::matmul(a, b)))
            << pf::isaName(l) << " transposed A";
    }
}

TEST(SimdKernelsTest, ElementwiseBitIdenticalAtEveryLevel)
{
    IsaGuard guard;
    for (pf::IsaLevel l : pf::supportedIsaLevels()) {
        pf::setActiveIsa(l);
        for (int64_t n : {int64_t(1), int64_t(7), int64_t(64),
                          int64_t(1000)}) {
            Tensor x = Tensor::randn(Shape{n}, 21);
            Tensor y = Tensor::randn(Shape{n}, 22);
            EXPECT_TRUE(tensorsBitIdentical(sd::relu(x), kn::relu(x)))
                << pf::isaName(l) << " n=" << n;
            EXPECT_TRUE(tensorsBitIdentical(sd::add(x, y), kn::add(x, y)))
                << pf::isaName(l) << " n=" << n;
            EXPECT_TRUE(tensorsBitIdentical(sd::mul(x, y), kn::mul(x, y)))
                << pf::isaName(l) << " n=" << n;
            EXPECT_TRUE(tensorsBitIdentical(sd::addScalar(x, 0.5f),
                                            kn::addScalar(x, 0.5f)))
                << pf::isaName(l) << " n=" << n;
            EXPECT_TRUE(tensorsBitIdentical(sd::mulScalar(x, -1.5f),
                                            kn::mulScalar(x, -1.5f)))
                << pf::isaName(l) << " n=" << n;
            EXPECT_TRUE(tensorsBitIdentical(sd::sub(x, y), kn::sub(x, y)))
                << pf::isaName(l) << " n=" << n;
            EXPECT_TRUE(tensorsBitIdentical(sd::div(x, y), kn::div(x, y)))
                << pf::isaName(l) << " n=" << n;
        }
    }
}

TEST(SimdKernelsTest, OrderPreservingKernelsBitIdentical)
{
    // The activation sweeps, last-dim softmax, and the hoisted batch
    // norm evaluate the reference's float expressions in the
    // reference's order.
    using sk = kn::scalar::UnaryKind;
    Tensor x = Tensor::randn(Shape{64, 33}, 21);
    const std::pair<sk, Tensor (*)(const Tensor &, Tensor)> acts[] = {
        {sk::Gelu, kn::gelu},       {sk::Silu, kn::silu},
        {sk::Sigmoid, kn::sigmoid}, {sk::Tanh, kn::tanhOp},
        {sk::Exp, kn::expOp},
    };
    for (const auto &[kind, ref] : acts)
        EXPECT_TRUE(tensorsBitIdentical(sd::unary({kind, 0.0f}, x),
                                        ref(x, {})))
            << static_cast<int>(kind);

    Tensor logits = Tensor::randn(Shape{5, 13, 17}, 23);
    EXPECT_TRUE(tensorsBitIdentical(sd::softmax(logits, -1),
                                    kn::softmax(logits, -1)));

    Tensor img = Tensor::randn(Shape{2, 6, 9, 9}, 24);
    Tensor gm = Tensor::randn(Shape{6}, 25, 0.1f);
    Tensor bt = Tensor::randn(Shape{6}, 26, 0.1f);
    Tensor mn = Tensor::randn(Shape{6}, 27, 0.1f);
    Tensor vr = Tensor::full(Shape{6}, 0.9f);
    EXPECT_TRUE(tensorsBitIdentical(
        sd::batchNorm2d(img, gm, bt, mn, vr, 1e-5f),
        kn::batchNorm2d(img, gm, bt, mn, vr, 1e-5f)));
}

TEST(SimdKernelsTest, NonFastInputsFallBackToReferenceSemantics)
{
    IsaGuard guard;
    for (pf::IsaLevel l : pf::supportedIsaLevels()) {
        pf::setActiveIsa(l);
        // F16 input: the vector path requires F32.
        Tensor h = Tensor::randn(Shape{40}, 31).to(DType::F16);
        EXPECT_TRUE(tensorsBitIdentical(sd::relu(h), kn::relu(h)))
            << pf::isaName(l);
        // Non-contiguous view input.
        Tensor x = Tensor::randn(Shape{12, 10}, 32).transpose(0, 1);
        EXPECT_TRUE(tensorsBitIdentical(
            sd::unary({kn::scalar::UnaryKind::Gelu, 0.0f}, x),
            kn::gelu(x)))
            << pf::isaName(l);
        // Broadcasting add (shapes differ): reference broadcast path.
        Tensor a = Tensor::randn(Shape{8, 5}, 33);
        Tensor row = Tensor::randn(Shape{5}, 34);
        EXPECT_TRUE(tensorsBitIdentical(sd::add(a, row), kn::add(a, row)))
            << pf::isaName(l);
    }
    // Softmax over a non-terminal dim: reference permuting path.
    Tensor t = Tensor::randn(Shape{4, 6, 8}, 35);
    EXPECT_TRUE(tensorsBitIdentical(sd::softmax(t, 1), kn::softmax(t, 1)));
}

TEST(SimdKernelsTest, LayerNormWithinToleranceAtEveryLevel)
{
    IsaGuard guard;
    for (pf::IsaLevel l : pf::supportedIsaLevels()) {
        pf::setActiveIsa(l);
        for (int64_t d : {int64_t(3), int64_t(17), int64_t(256)}) {
            Tensor x = Tensor::randn(Shape{5, d}, 31);
            Tensor g = Tensor::randn(Shape{d}, 32, 0.1f);
            Tensor b = Tensor::randn(Shape{d}, 33, 0.1f);
            EXPECT_TRUE(tensorsClose(sd::layerNorm(x, g, b, 1e-5f),
                                     kn::layerNorm(x, g, b, 1e-5f),
                                     1e-3f, 1e-4f))
                << pf::isaName(l) << " d=" << d;
        }
        // Large common offset, tiny spread: an E[x^2]-mean^2 shortcut
        // would cancel catastrophically here (variance ~1e-2 against
        // squared moments ~1e6); the centered two-pass moments must
        // stay with the reference. The deviations themselves carry
        // only ~3 significant digits at offset 1000, so the bound is
        // an absolute z-score one that catches a blowup.
        Tensor shifted = kn::addScalar(
            Tensor::randn(Shape{8, 256}, 83, 0.1f), 1000.0f);
        Tensor g1 = Tensor::full(Shape{256}, 1.0f);
        Tensor b0 = Tensor::zeros(Shape{256});
        EXPECT_TRUE(tensorsClose(sd::layerNorm(shifted, g1, b0, 1e-5f),
                                 kn::layerNorm(shifted, g1, b0, 1e-5f),
                                 1e-2f, 5e-2f))
            << pf::isaName(l) << " shifted";
    }
}

// ---- tile candidates: bit-identity is what makes tuning safe -------------

TEST(SimdKernelsTest, EveryTileCandidateProducesIdenticalBits)
{
    IsaGuard guard;
    for (pf::IsaLevel l : pf::supportedIsaLevels()) {
        pf::setActiveIsa(l);
        const std::vector<simd::TileConfig> &cands =
            simd::gemmTileCandidates(l);
        ASSERT_GT(cands.size(), 1u) << pf::isaName(l);
        for (const auto &s :
             {std::pair<int64_t, int64_t>{33, 47},
              std::pair<int64_t, int64_t>{8, 8},
              std::pair<int64_t, int64_t>{1, 64}}) {
            Tensor a = Tensor::randn(Shape{s.first, s.second}, 41);
            Tensor b = Tensor::randn(Shape{s.second, 29}, 42);
            Tensor want = sd::matmulTiled(a, b, cands[0]);
            for (size_t i = 1; i < cands.size(); ++i)
                EXPECT_TRUE(tensorsBitIdentical(
                    sd::matmulTiled(a, b, cands[i]), want))
                    << pf::isaName(l) << " candidate " << i;
        }
    }
}

// ---- int8: exact i32 accumulation => bit-identity everywhere -------------

TEST(SimdKernelsTest, Int8RequantBitIdenticalIncludingKTails)
{
    IsaGuard guard;
    // K % 4 != 0 exercises the dot-product kernels' tail path (and
    // the VNNI +128 compensation must cover only the interleaved
    // body); K < 4 is all-tail.
    const int64_t shapes[][3] = {
        {2, 3, 5}, {5, 7, 9}, {8, 33, 16}, {3, 64, 20}, {4, 50, 40},
    };
    for (pf::IsaLevel l : pf::supportedIsaLevels()) {
        pf::setActiveIsa(l);
        for (const auto &s : shapes) {
            Tensor x = Tensor::randn(Shape{s[0], s[1]}, 51);
            Tensor w = Tensor::randn(Shape{s[2], s[1]}, 52);
            Tensor bias = Tensor::randn(Shape{s[2]}, 53);
            auto [xq, xs] = kq::quantizeActivation(x);
            float xScale = kq::scaleValue(xs);
            Tensor scales = quant::perChannelScales(w);
            Tensor wtq = quant::packWeightInt8(w, scales);
            Tensor want = kq::int8LinearRequant(
                xq, xScale, quant::quantizeWeightRows(w, scales), scales,
                bias, nullptr, 0);
            Tensor got = sd::int8LinearRequant(
                xq, xScale, sd::packInt8Weight(wtq), scales, bias);
            EXPECT_TRUE(tensorsBitIdentical(got, want))
                << pf::isaName(l) << " " << s[0] << "x" << s[1] << "x"
                << s[2];
        }
    }
}

// ---- tuning cache --------------------------------------------------------

TEST(TuningCacheTest, TunesOncePersistsAndReplaysWarm)
{
    const std::string path = "simd_tune_test.json";
    std::remove(path.c_str());
    const simd::TuneKey key{"matmul", "8x8x8", "avx2"};
    {
        simd::TuningCache cache(path);
        int runs = 0;
        int choice = cache.choose(key, 3, [&](int i) {
            ++runs;
            return i == 1 ? 10.0 : 30.0 + i;
        });
        EXPECT_EQ(choice, 1);
        EXPECT_EQ(runs, 3);
        EXPECT_EQ(cache.stats().tuneRuns, 3u);
        EXPECT_EQ(cache.stats().tunedKeys, 1u);
        EXPECT_TRUE(cache.contains(key));
        // Second lookup in the same process replays in-memory.
        EXPECT_EQ(cache.choose(key, 3,
                               [&](int) {
                                   ADD_FAILURE() << "re-tuned";
                                   return 0.0;
                               }),
                  1);
        EXPECT_EQ(cache.stats().replays, 1u);
    }
    {
        // A fresh cache on the same file starts warm: zero tuning
        // runs — the --expect-warm contract.
        simd::TuningCache cache(path);
        EXPECT_EQ(cache.stats().entriesLoaded, 1u);
        EXPECT_EQ(cache.choose(key, 3,
                               [&](int) {
                                   ADD_FAILURE() << "cold reload";
                                   return 0.0;
                               }),
                  1);
        EXPECT_EQ(cache.stats().tuneRuns, 0u);
        EXPECT_EQ(cache.stats().replays, 1u);
        // A stored choice that no longer names a valid candidate
        // (the candidate list shrank) re-tunes instead of replaying
        // out of range.
        int runs = 0;
        cache.choose({"matmul", "8x8x8", "avx2"}, 1, [&](int) {
            ++runs;
            return 1.0;
        });
        EXPECT_EQ(runs, 0);  // nCandidates <= 1 short-circuits
    }
    std::remove(path.c_str());
}

TEST(TuningCacheTest, AnotherMachinesFileIsRejectedWholesale)
{
    const std::string path = "simd_tune_othermachine.json";
    {
        std::ofstream f(path);
        f << "{\n  \"version\": 1,\n  \"machine\": \"other-box\",\n"
          << "  \"entries\": [\n"
          << "    {\"op\":\"matmul\",\"shape\":\"8x8x8\","
          << "\"isa\":\"avx2\",\"choice\":2,\"ns\":5.0}\n  ]\n}\n";
    }
    simd::TuningCache cache(path);
    EXPECT_EQ(cache.stats().entriesLoaded, 0u);
    EXPECT_EQ(cache.stats().entriesRejected, 1u);
    EXPECT_EQ(cache.entries(), 0u);
    std::remove(path.c_str());
}

// ---- engine cache keys on ISA --------------------------------------------

TEST(SimdEngineCacheTest, KeysDifferingOnlyInIsaAreDistinct)
{
    serve::EngineKey a, b;
    b.isa = "avx2";
    EXPECT_TRUE(a < b || b < a);
}

TEST(SimdEngineCacheTest, ActiveIsaFlowsIntoEngineKeys)
{
    std::vector<pf::IsaLevel> levels = pf::supportedIsaLevels();
    if (levels.size() < 2)
        GTEST_SKIP() << "host dispatches a single level";
    IsaGuard guard;
    ThreadPool pool(1);
    serve::EngineConfig cfg;  // cfg.isa empty: resolves at get() time
    serve::EngineCache cache(pool, cfg);
    pf::setActiveIsa(levels.front());
    cache.get("vit_b");
    pf::setActiveIsa(levels.back());
    cache.get("vit_b");
    EXPECT_EQ(cache.stats().engines, 2u);
    EXPECT_EQ(cache.stats().misses, 2);
}

// ---- full-registry differential sweep per level --------------------------

class SimdDifferentialTest
    : public ::testing::TestWithParam<models::ModelInfo>
{
};

TEST_P(SimdDifferentialTest, SimdMatchesReferenceAtEveryLevel)
{
    const models::ModelInfo &info = GetParam();
    Graph g = info.build(ModelConfig{1, 8, false, 0, 8});
    std::vector<Tensor> inputs = makeRequestInputs(g, 99);

    Executor ref(g, referenceBackend());
    std::vector<Tensor> want = ref.run(inputs);

    for (pf::IsaLevel l : pf::supportedIsaLevels()) {
        Backend b = makeSimdBackend(l);
        Executor ex(g, b);
        EXPECT_EQ(closeDifference(ex.run(inputs), want), "")
            << info.name << " at " << pf::isaName(l);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryModels, SimdDifferentialTest,
    ::testing::ValuesIn(models::modelRegistry()),
    [](const ::testing::TestParamInfo<models::ModelInfo> &i) {
        return i.param.name;
    });

}  // namespace
}  // namespace ngb
