/**
 * @file
 * Executable int8 quantization: the quant rewrite as a runnable graph
 * transform, proven by a differential suite (every registry model x
 * {int8, int8-raw, w8} x {reference, simd} backend x {serial,
 * wavefront, batch} runtime, plus engine-cache serving) and unit tests
 * for the kernel/pack/elimination building blocks.
 *
 * Accuracy contracts under test:
 *  - quantized vs float baseline: relative-L2 tolerance
 *    (quantDifference) — int8 rounding legitimately moves every
 *    element, so element-wise tolerances are the wrong yardstick;
 *  - int8 vs int8-raw on ONE backend: bit-identical — Q/DQ
 *    elimination evaluates the same float expressions in the same
 *    order;
 *  - serial vs wavefront vs batch on one graph/backend:
 *    bit-identical — scheduling must never change results;
 *  - across backends under activation quantization: relative-L2 —
 *    the backends' float ops reassociate, an absmax scale that moves
 *    one ulp shifts EVERY int8 code of that tensor one step.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend_sets.h"
#include "graph/builder.h"
#include "graph/executor.h"
#include "graph/validate.h"
#include "models/registry.h"
#include "ops/backend.h"
#include "quant/qdq_elim.h"
#include "quant/quant_kernels.h"
#include "quant/quant_mode.h"
#include "quant/weight_pack.h"
#include "runtime/batch_driver.h"
#include "runtime/parallel_executor.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"

namespace ngb {
namespace {

using quant::QuantExecMode;

void
expectValid(const Graph &g, const std::string &context)
{
    ValidationResult vr = validateGraph(g);
    EXPECT_TRUE(vr.ok()) << context << ":\n" << formatIssues(vr);
}

// ---- differential suite over the registry ---------------------------------

/**
 * Scale-8 test build, halved again for the very largest graphs
 * (mixtral, the RCNNs) so the reference-backend runs the matrix below
 * repeats stay affordable — the quant eligibility cutoff
 * (minInFeatures 32) still passes at scale 16 on every such model.
 */
Graph
buildSmall(const models::ModelInfo &info)
{
    Graph g = info.build(ModelConfig{1, 8, false, 0, 8});
    if (g.size() > 400)
        g = info.build(ModelConfig{1, 8, false, 0, 16});
    return g;
}

class QuantDifferentialTest
    : public ::testing::TestWithParam<models::ModelInfo>
{
};

TEST_P(QuantDifferentialTest, QuantizedMatchesFloatAcrossRuntimes)
{
    const models::ModelInfo &info = GetParam();
    Graph g = buildSmall(info);
    std::vector<Tensor> inputs = makeRequestInputs(g, 42);

    Executor floatRef(g, referenceBackend());
    std::vector<Tensor> want = floatRef.run(inputs);
    ThreadPool pool(4);

    for (QuantExecMode mode : {QuantExecMode::Int8,
                               QuantExecMode::Int8Raw,
                               QuantExecMode::WeightOnly}) {
        QuantizeStats st;
        Graph q = quant::applyQuantMode(g, mode, &st);
        std::string ctx =
            info.name + std::string(" [") + quant::quantModeName(mode) +
            "]";
        expectValid(q, ctx);
        ASSERT_EQ(makeRequestInputs(q, 42).size(), inputs.size())
            << ctx << ": quantization changed the graph inputs";

        const bool act_quant = mode != QuantExecMode::WeightOnly;
        std::vector<Tensor> ref_got;
        const std::vector<Backend> fast = fastBackends();
        for (const Backend *backend : withReference(fast)) {
            Executor qex(q, *backend);
            std::vector<Tensor> got = qex.run(inputs);

            // Tolerance vs the float baseline (vacuously exact when
            // the model has no linear wide enough to quantize).
            EXPECT_EQ(quantDifference(got, want), "")
                << ctx << " [" << backend->name() << "]";
            if (st.linearsQuantized == 0)
                EXPECT_EQ(bitDifference(got, want), "") << ctx;

            // Scheduling invariance: wavefront == serial, batch ==
            // serial, bit for bit.
            ParallelExecutor pex(q, pool, *backend);
            EXPECT_EQ(bitDifference(pex.run(inputs), got), "")
                << ctx << " [" << backend->name() << " wavefront]";
            BatchDriver driver(q, pool, *backend);
            auto outs = driver.run({inputs});
            EXPECT_EQ(bitDifference(outs[0], got), "")
                << ctx << " [" << backend->name() << " batch]";

            // Cross-backend: relative-L2 under activation
            // quantization (scale ulp amplification), element-wise
            // closeness for float-activation w8.
            if (backend == &referenceBackend()) {
                ref_got = got;
            } else if (act_quant) {
                EXPECT_EQ(quantDifference(got, ref_got), "")
                    << ctx << " [cross-backend]";
            } else {
                EXPECT_EQ(closeDifference(got, ref_got), "")
                    << ctx << " [cross-backend]";
            }
        }
    }
}

TEST_P(QuantDifferentialTest, Int8EliminationIsBitIdenticalToRaw)
{
    const models::ModelInfo &info = GetParam();
    Graph g = buildSmall(info);
    std::vector<Tensor> inputs = makeRequestInputs(g, 42);

    QuantizeStats raw_st, elim_st;
    Graph raw = quant::applyQuantMode(g, QuantExecMode::Int8Raw, &raw_st);
    Graph elim = quant::applyQuantMode(g, QuantExecMode::Int8, &elim_st);

    // Elimination only ever removes standalone Q/DQ work.
    EXPECT_LE(elim.size(), raw.size()) << info.name;
    EXPECT_GE(elim_st.qdqPairsCancelled + elim_st.requantFolded,
              elim_st.linearsQuantized > 1 ? 1 : 0)
        << info.name;

    const std::vector<Backend> fast = fastBackends();
    for (const Backend *backend : withReference(fast)) {
        Executor rex(raw, *backend);
        Executor eex(elim, *backend);
        EXPECT_EQ(bitDifference(eex.run(inputs), rex.run(inputs)), "")
            << info.name << " [" << backend->name() << "]";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryModels, QuantDifferentialTest,
    ::testing::ValuesIn(models::modelRegistry()),
    [](const ::testing::TestParamInfo<models::ModelInfo> &i) {
        return i.param.name;
    });

// ---- serving: quantized engines -------------------------------------------

TEST(QuantServeTest, EngineCacheKeysOnQuantAndServesWithinTolerance)
{
    ThreadPool pool(2);
    serve::EngineConfig plain;
    plain.scale = 8;
    plain.quant = "off";  // pin: the default tracks $NGB_QUANT
    serve::EngineConfig quantized = plain;
    quantized.quant = "int8";

    serve::EngineCache cache_plain(pool, plain);
    serve::EngineCache cache_quant(pool, quantized);

    serve::Engine &e0 = cache_plain.get("gpt2");
    serve::Engine &e1 = cache_quant.get("gpt2");
    EXPECT_NE(&e0, &e1);
    EXPECT_TRUE(e1.driver().profile().quant.quantized);
    EXPECT_FALSE(e0.driver().profile().quant.quantized);

    std::vector<std::vector<Tensor>> req = {
        makeRequestInputs(e0.graph(), 9)};
    auto a = e0.run(req);
    auto c = e1.run(req);
    EXPECT_EQ(quantDifference(c[0], a[0]), "");

    // The served quantized engine reproduces its own serial executor
    // bit-for-bit.
    Executor s1(e1.graph(), e1.backend());
    EXPECT_EQ(bitDifference(c[0], s1.run(req[0])), "");

    // Quant census flows into the cache-wide stats.
    auto stats = cache_quant.stats();
    EXPECT_TRUE(stats.quant.quantized);
    EXPECT_GT(stats.quant.int8Gemms, 0);
    EXPECT_GT(stats.quant.weightCompression(), 1.8);
}

// ---- weight packing -------------------------------------------------------

TEST(WeightPackTest, PerChannelScalesAreAbsmaxOver127)
{
    Tensor w(Shape{3, 4});
    float vals[3][4] = {{1.0f, -2.0f, 0.5f, 1.5f},
                       {0.0f, 0.0f, 0.0f, 0.0f},
                       {-0.25f, 0.1f, 0.2f, -0.05f}};
    for (int64_t n = 0; n < 3; ++n)
        for (int64_t k = 0; k < 4; ++k)
            w.flatSet(n * 4 + k, vals[n][k]);

    Tensor s = quant::perChannelScales(w);
    ASSERT_EQ(s.numel(), 3);
    EXPECT_FLOAT_EQ(s.flatAt(0), 2.0f / 127.0f);
    EXPECT_FLOAT_EQ(s.flatAt(1), 1.0f);  // all-zero row: no div-by-zero
    EXPECT_FLOAT_EQ(s.flatAt(2), 0.25f / 127.0f);

    // The zero row quantizes to exactly zero.
    Tensor wq = quant::quantizeWeightRows(w, s);
    for (int64_t k = 0; k < 4; ++k)
        EXPECT_EQ(wq.flatAt(4 + k), 0.0f);
}

TEST(WeightPackTest, QuantizeRoundTripStaysWithinHalfStep)
{
    Tensor w = Tensor::randn(Shape{17, 33}, 0xfeed, 0.05f);
    Tensor s = quant::perChannelScales(w);
    Tensor wq = quant::quantizeWeightRows(w, s);
    Tensor back = quant::unpackWeightInt8(wq, s);
    ASSERT_EQ(back.numel(), w.numel());
    for (int64_t n = 0; n < 17; ++n) {
        float step = s.flatAt(n);
        for (int64_t k = 0; k < 33; ++k) {
            int64_t i = n * 33 + k;
            EXPECT_LE(std::abs(back.flatAt(i) - w.flatAt(i)),
                      0.5f * step + 1e-7f)
                << "element " << i;
        }
    }
}

TEST(WeightPackTest, PackedLayoutIsTheTransposeOfRowLayout)
{
    Tensor w = Tensor::randn(Shape{5, 9}, 0xbeef, 0.1f);
    Tensor s = quant::perChannelScales(w);
    Tensor rows = quant::quantizeWeightRows(w, s);   // [N,K]
    Tensor packed = quant::packWeightInt8(w, s);     // [K,N]
    ASSERT_EQ(packed.shape(), (Shape{9, 5}));
    for (int64_t n = 0; n < 5; ++n)
        for (int64_t k = 0; k < 9; ++k)
            EXPECT_EQ(packed.flatAt(k * 5 + n), rows.flatAt(n * 9 + k))
                << "(" << n << "," << k << ")";
}

TEST(WeightPackTest, WeightByteAccountingBeats1p8xOnRealShapes)
{
    Shape w{768, 768};
    int64_t packed = quant::packedWeightBytes(w);
    int64_t f32 = quant::floatWeightBytes(w);
    EXPECT_EQ(f32, 768 * 768 * 4);
    EXPECT_EQ(packed, 768 * 768 + 768 * 4);  // int8 elements + f32 scales
    EXPECT_GT(static_cast<double>(f32) / static_cast<double>(packed),
              1.8);
}

// ---- requantize / saturating cast edge cases ------------------------------

TEST(QuantKernelTest, SatCastI8SaturatesAndRoundsHalfAwayFromZero)
{
    using kernels::qnt::satCastI8;
    EXPECT_EQ(satCastI8(0.0f), 0);
    EXPECT_EQ(satCastI8(0.5f), 1);     // half away from zero
    EXPECT_EQ(satCastI8(-0.5f), -1);
    EXPECT_EQ(satCastI8(126.4f), 126);
    EXPECT_EQ(satCastI8(126.5f), 127);
    EXPECT_EQ(satCastI8(127.0f), 127);
    EXPECT_EQ(satCastI8(127.9f), 127);   // clamp, not wrap
    EXPECT_EQ(satCastI8(1000.0f), 127);
    EXPECT_EQ(satCastI8(-127.5f), -128);
    EXPECT_EQ(satCastI8(-128.0f), -128);
    EXPECT_EQ(satCastI8(-1000.0f), -128);
}

TEST(QuantKernelTest, ZeroScaleIsRejectedLoudly)
{
    Tensor x = Tensor::randn(Shape{4, 8}, 3);
    for (float bad : {0.0f, -1.0f}) {
        EXPECT_THROW(kernels::qnt::quantizeWithScale(x, bad),
                     std::runtime_error)
            << "scale " << bad;
        Tensor s = Tensor::full(Shape{1}, bad);
        EXPECT_THROW(kernels::qnt::scaleValue(s), std::runtime_error)
            << "scale " << bad;
    }
    Tensor inf_s = Tensor::full(Shape{1}, INFINITY);
    EXPECT_THROW(kernels::qnt::scaleValue(inf_s), std::runtime_error);
    EXPECT_THROW(kernels::qnt::scaleValue(Tensor{}), std::runtime_error);
}

TEST(QuantKernelTest, AllZeroActivationQuantizesWithUnitScale)
{
    auto [xq, scale] =
        kernels::qnt::quantizeActivation(Tensor::zeros(Shape{3, 5}));
    EXPECT_FLOAT_EQ(scale.flatAt(0), 1.0f);
    for (int64_t i = 0; i < xq.numel(); ++i)
        EXPECT_EQ(xq.flatAt(i), 0.0f);
}

TEST(QuantKernelTest, PackedAndNaiveGemmsShareBitIdenticalEpilogues)
{
    // i32 accumulation is exact, so every simd level's int8 kernel and
    // the naive [N,K] kernel must agree to the bit — including ragged
    // edges that exercise partial tiles.
    IsaGuard guard;
    for (int64_t m : {1, 3, 4, 5}) {
        for (int64_t k : {1, 7, 32, 63}) {
            for (int64_t n : {1, 15, 16, 33}) {
                Tensor x = Tensor::randn(Shape{m, k}, m * 1000 + k, 2.0f);
                Tensor w =
                    Tensor::randn(Shape{n, k}, n * 77 + k, 0.08f);
                Tensor bias = Tensor::randn(Shape{n}, n, 0.1f);
                Tensor ws = quant::perChannelScales(w);
                Tensor wq = quant::quantizeWeightRows(w, ws);
                Tensor wtq = quant::packWeightInt8(w, ws);
                auto [xq, xs] = kernels::qnt::quantizeActivation(x);
                float xscale = kernels::qnt::scaleValue(xs);

                Tensor naive = kernels::qnt::int8LinearRequant(
                    xq, xscale, wq, ws, bias, nullptr, 0);
                for (platform::IsaLevel l :
                     platform::supportedIsaLevels()) {
                    platform::setActiveIsa(l);
                    Tensor tiled = kernels::sd::int8LinearRequant(
                        xq, xscale, kernels::sd::packInt8Weight(wtq), ws,
                        bias);
                    EXPECT_EQ(bitDifference({tiled}, {naive}), "")
                        << platform::isaName(l) << " m=" << m
                        << " k=" << k << " n=" << n;
                }

                Tensor w8n =
                    kernels::qnt::w8Linear(x, wq, ws, bias);
                Tensor w8t = kernels::qnt::w8LinearPacked(
                    x, wtq, ws, bias, nullptr, 0);
                EXPECT_EQ(bitDifference({w8t}, {w8n}), "")
                    << "w8 m=" << m << " k=" << k << " n=" << n;
            }
        }
    }
}

// ---- Q/DQ elimination on seeded chains ------------------------------------

/** Two wide linears back to back: the canonical DQ->Q seam. */
Graph
twoLinearChain()
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{4, 64});
    Value h = b.linear(x, 64, true, "fc0");
    b.output(b.linear(h, 32, true, "fc1"));
    return g;
}

TEST(QdqElimTest, CancelsThePairBetweenAdjacentQuantizedLinears)
{
    Graph raw = quant::applyQuantMode(twoLinearChain(),
                                      QuantExecMode::Int8Raw);
    quant::QdqElimStats st;
    Graph elim = quant::eliminateQdq(raw, &st);
    expectValid(elim, "two-linear chain");

    // fc0's Dequantize and fc1's Quantize collapse into one fused
    // requantize; fc1's trailing Dequantize folds into its GEMM.
    EXPECT_EQ(st.pairsCancelled, 1);
    EXPECT_EQ(st.requantFolded, 1);
    EXPECT_LT(elim.size(), raw.size());

    std::vector<Tensor> inputs = makeRequestInputs(raw, 5);
    Executor rex(raw, referenceBackend());
    Executor eex(elim, referenceBackend());
    EXPECT_EQ(bitDifference(eex.run(inputs), rex.run(inputs)), "");
}

TEST(QdqElimTest, FloatGraphPassesThroughUntouched)
{
    Graph g = twoLinearChain();
    quant::QdqElimStats st;
    Graph out = quant::eliminateQdq(g, &st);
    EXPECT_EQ(st.pairsCancelled, 0);
    EXPECT_EQ(st.requantFolded, 0);
    EXPECT_EQ(out.size(), g.size());
}

TEST(QdqElimTest, EliminationShrinksThePlannedTensorFootprint)
{
    // Cancelled float round-trips and folded i32 accumulator tensors
    // never reach the memory plan: the no-reuse footprint must
    // strictly shrink on every registry model. (The lifetime-reused
    // arena PEAK is not monotone — the fused requantize's i8 output
    // can outlive the float tensor it replaced — so the invariant is
    // on totalBytes.)
    for (const models::ModelInfo &info : models::modelRegistry()) {
        Graph g = info.build(ModelConfig{1, 8, false, 0, 8});
        Graph raw = quant::applyQuantMode(g, QuantExecMode::Int8Raw);
        Graph elim = quant::applyQuantMode(g, QuantExecMode::Int8);
        auto raw_plan = buildEnginePlan(raw);
        auto elim_plan = buildEnginePlan(elim);
        EXPECT_LT(elim_plan->memplan.totalBytes,
                  raw_plan->memplan.totalBytes)
            << info.name;
    }
}

// ---- rewrite stats --------------------------------------------------------

TEST(QuantModeTest, ParseAndNameRoundTrip)
{
    using quant::parseQuantMode;
    EXPECT_EQ(parseQuantMode(""), QuantExecMode::Off);
    EXPECT_EQ(parseQuantMode("0"), QuantExecMode::Off);
    EXPECT_EQ(parseQuantMode("off"), QuantExecMode::Off);
    EXPECT_EQ(parseQuantMode("1"), QuantExecMode::Int8);
    EXPECT_EQ(parseQuantMode("int8"), QuantExecMode::Int8);
    EXPECT_EQ(parseQuantMode("int8-raw"), QuantExecMode::Int8Raw);
    EXPECT_EQ(parseQuantMode("raw"), QuantExecMode::Int8Raw);
    EXPECT_EQ(parseQuantMode("w8"), QuantExecMode::WeightOnly);
    EXPECT_EQ(parseQuantMode("weight-only"), QuantExecMode::WeightOnly);
    EXPECT_THROW(parseQuantMode("int4"), std::runtime_error);
    for (QuantExecMode m : {QuantExecMode::Off, QuantExecMode::Int8,
                            QuantExecMode::Int8Raw,
                            QuantExecMode::WeightOnly})
        EXPECT_EQ(parseQuantMode(quant::quantModeName(m)), m);
}

TEST(QuantModeTest, ExecStatsCensusMatchesRewriteStats)
{
    Graph g = models::findModel("gpt2").build(ModelConfig{1, 8, false,
                                                          0, 8});
    QuantizeStats st;
    Graph q = quant::applyQuantMode(g, QuantExecMode::Int8, &st);
    quant::QuantExecStats census = quant::quantExecStatsOf(q);
    EXPECT_TRUE(census.quantized);
    EXPECT_EQ(census.int8Gemms, st.linearsQuantized);
    EXPECT_EQ(census.packedWeightBytes, st.packedWeightBytes);
    EXPECT_EQ(census.floatWeightBytes, st.floatWeightBytes);
    EXPECT_GT(census.weightCompression(), 1.8);

    quant::QuantExecStats off = quant::quantExecStatsOf(g);
    EXPECT_FALSE(off.quantized);
    EXPECT_EQ(off.weightCompression(), 1.0);
}

}  // namespace
}  // namespace ngb
