#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend_sets.h"
#include "deploy/fusion.h"
#include "graph/executor.h"
#include "models/registry.h"
#include "ops/simd_backend.h"
#include "platform/tuning_cache.h"
#include "quant/quant_kernels.h"
#include "quant/quant_mode.h"
#include "quant/weight_pack.h"
#include "runtime/batch_driver.h"
#include "runtime/intraop.h"
#include "runtime/parallel_executor.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"

/**
 * @file
 * Intra-op parallelism: the ParallelRegion primitive (nesting guard,
 * shard accounting), the thread-keyed tuning cache, and — the heart of
 * the PR — the differential suite asserting that every registry model
 * produces BIT-IDENTICAL outputs at every thread count, f32 and int8,
 * fused and unfused. Sharding splits M/N iteration space and never the
 * K reduction, so there is no tolerance anywhere in this file: every
 * comparison is exact.
 */

namespace ngb {
namespace {

using Clock = std::chrono::steady_clock;

::testing::AssertionResult
outputsBitIdentical(const std::vector<Tensor> &a,
                    const std::vector<Tensor> &b)
{
    std::string diff = bitDifference(a, b);
    if (diff.empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << diff;
}

// ---- mode parsing ----------------------------------------------------------

TEST(IntraOpModeTest, ParsesNamesAndRejectsGarbage)
{
    EXPECT_EQ(parseIntraOpMode("on"), IntraOpMode::On);
    EXPECT_EQ(parseIntraOpMode("off"), IntraOpMode::Off);
    EXPECT_EQ(parseIntraOpMode("auto"), IntraOpMode::Auto);
    EXPECT_THROW(parseIntraOpMode("yes"), std::runtime_error);
    EXPECT_THROW(parseIntraOpMode(""), std::runtime_error);
    EXPECT_STREQ(intraOpModeName(IntraOpMode::On), "on");
    EXPECT_STREQ(intraOpModeName(IntraOpMode::Off), "off");
    EXPECT_STREQ(intraOpModeName(IntraOpMode::Auto), "auto");
}

TEST(IntraOpModeTest, EnvParsesThroughParseIntraOpModePlusAliases)
{
    const char *prev = std::getenv("NGB_INTRAOP");
    const std::string saved = prev ? prev : "";
    auto from = [](const char *v) {
        setenv("NGB_INTRAOP", v, 1);
        return intraOpModeFromEnv();
    };
    EXPECT_EQ(from(""), IntraOpMode::Auto);
    EXPECT_EQ(from("0"), IntraOpMode::Off);
    EXPECT_EQ(from("1"), IntraOpMode::On);
    EXPECT_EQ(from("off"), IntraOpMode::Off);
    EXPECT_EQ(from("on"), IntraOpMode::On);
    EXPECT_EQ(from("auto"), IntraOpMode::Auto);
    EXPECT_THROW(from("of"), std::runtime_error);
    EXPECT_THROW(from("true"), std::runtime_error);
    if (prev)
        setenv("NGB_INTRAOP", saved.c_str(), 1);
    else
        unsetenv("NGB_INTRAOP");
    EXPECT_NO_THROW(intraOpModeFromEnv());
}

// ---- ParallelRegion primitive ----------------------------------------------

TEST(IntraOpRegionTest, InertRegionRunsShardsSeriallyInOrder)
{
    ParallelRegion region;  // no pool
    EXPECT_EQ(region.threads(), 1);
    std::vector<size_t> order;
    region.run(5, [&](size_t s, int worker) {
        EXPECT_GE(worker, 0);
        order.push_back(s);
    });
    ASSERT_EQ(order.size(), 5u);
    for (size_t i = 0; i < 5; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(IntraOpRegionTest, RunsEveryShardExactlyOnceAcrossWorkers)
{
    ThreadPool pool(4);
    ParallelRegion region(&pool);
    EXPECT_EQ(region.threads(), 4);
    std::vector<std::atomic<int>> hits(257);
    region.run(hits.size(), [&](size_t s, int worker) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, 4);
        ++hits[s];
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(IntraOpRegionTest, ShardExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(4);
    ParallelRegion region(&pool);
    EXPECT_THROW(region.run(64,
                            [&](size_t s, int) {
                                if (s == 13)
                                    throw std::runtime_error("boom");
                            }),
                 std::runtime_error);
    std::atomic<int> n{0};
    region.run(32, [&](size_t, int) { ++n; });
    EXPECT_EQ(n.load(), 32);
}

// ---- nesting guard ---------------------------------------------------------

TEST(IntraOpNestingTest, RegionInsidePoolTaskRunsInlineWithoutDeadlock)
{
    // The wavefront executor dispatches node tasks through the same
    // pool a kernel's region borrows. A region launched from INSIDE a
    // task must run its shards inline on the calling worker — any
    // attempt at a second fork-join on the same pool would deadlock.
    ThreadPool pool(3);
    ParallelRegion region(&pool);
    std::atomic<int> shards{0};
    std::atomic<int> outer{0};
    pool.parallelFor(8, [&](size_t, int w) {
        EXPECT_TRUE(ThreadPool::inTask());
        EXPECT_EQ(ThreadPool::currentWorker(), w);
        ++outer;
        region.run(16, [&](size_t, int worker) {
            // Inline execution: the shard stays on the task's worker.
            EXPECT_EQ(worker, w);
            ++shards;
        });
    });
    EXPECT_EQ(outer.load(), 8);
    EXPECT_EQ(shards.load(), 8 * 16);
    EXPECT_FALSE(ThreadPool::inTask());
    EXPECT_EQ(ThreadPool::currentWorker(), -1);
}

TEST(IntraOpNestingTest, InlineShardsAreNotDoubleCountedInWorkerStats)
{
    ThreadPool pool(2);
    pool.drainStats();

    ParallelRegion region(&pool);
    auto spin = [](double us) {
        auto t0 = Clock::now();
        while (std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0)
                   .count() < us)
            ;
    };
    auto wall0 = Clock::now();
    pool.parallelFor(1, [&](size_t, int) {
        region.run(4, [&](size_t, int) { spin(2000); });
    });
    double wall_us = std::chrono::duration<double, std::micro>(
                         Clock::now() - wall0)
                         .count();

    int64_t tasks = 0;
    double busy_us = 0;
    for (const auto &ws : pool.drainStats()) {
        tasks += ws.tasks;
        busy_us += ws.busyUs;
    }
    // The enclosing task is the only task: inline shards must not be
    // re-counted (1 outer, not 1 + 4 inner).
    EXPECT_EQ(tasks, 1);
    // And its timer runs once: busy time tracks the region's wall
    // (~8ms of spinning), not 2x of it. Generous bound for CI noise.
    EXPECT_GE(busy_us, 8000.0 * 0.5);
    EXPECT_LE(busy_us, wall_us * 1.25 + 1000.0);
}

// ---- thread-keyed tuning cache ---------------------------------------------

TEST(IntraOpTuningTest, ThreadCountIsPartOfTheTuneKey)
{
    simd::TuneKey serial{"matmul", "64x64x64", "avx2", 1};
    simd::TuneKey sharded{"matmul", "64x64x64", "avx2", 8};
    EXPECT_TRUE(serial < sharded || sharded < serial);

    simd::TuningCache cache;
    int tuned = 0;
    auto timeAsIndex = [&](int i) {
        ++tuned;
        return 100.0 - i;  // last candidate "fastest"
    };
    EXPECT_EQ(cache.choose(serial, 3, timeAsIndex), 2);
    EXPECT_EQ(tuned, 3);
    // A different thread count misses (its own tuning run)...
    EXPECT_EQ(cache.choose(sharded, 3, timeAsIndex), 2);
    EXPECT_EQ(tuned, 6);
    // ...and both entries replay independently afterwards.
    EXPECT_EQ(cache.choose(serial, 3, timeAsIndex), 2);
    EXPECT_EQ(cache.choose(sharded, 3, timeAsIndex), 2);
    EXPECT_EQ(tuned, 6);
    EXPECT_EQ(cache.entries(), 2u);
}

// ---- ragged macro-tile shapes ----------------------------------------------

/** Shapes straddling every blocking boundary the kernels use: the
 *  4/16 register tile, the 64-row and 128-col macro tiles, kc=256. */
struct GemmShape {
    int64_t m, k, n;
};
const GemmShape kRaggedShapes[] = {
    {1, 7, 9},     {3, 64, 48},    {5, 17, 129},  {63, 256, 80},
    {64, 33, 16},  {65, 100, 130}, {127, 64, 255}, {130, 257, 96},
};

TEST(IntraOpRaggedTest, SimdF32KernelsBitIdenticalUnderRegion)
{
    ThreadPool pool(3);
    ParallelRegion region(&pool);
    namespace sd = kernels::sd;
    IsaGuard restore;
    for (platform::IsaLevel l : platform::supportedIsaLevels()) {
        platform::setActiveIsa(l);
        for (const GemmShape &s : kRaggedShapes) {
            Tensor a = Tensor::randn(Shape{s.m, s.k}, s.m * 41 + s.n);
            Tensor b = Tensor::randn(Shape{s.k, s.n}, s.k * 13 + s.m);
            EXPECT_TRUE(outputsBitIdentical(
                {sd::matmul(a, b, {}, &region)}, {sd::matmul(a, b)}))
                << platform::isaName(l) << " matmul " << s.m << "x"
                << s.k << "x" << s.n;

            Tensor w = Tensor::randn(Shape{s.n, s.k}, s.n * 7 + s.k);
            Tensor bias = Tensor::randn(Shape{s.n}, s.n);
            Tensor wt = sd::packWeightTranspose(w);
            EXPECT_TRUE(outputsBitIdentical(
                {sd::linearPacked(a, wt, bias, {}, &region)},
                {sd::linearPacked(a, wt, bias)}))
                << platform::isaName(l) << " linear " << s.m << "x"
                << s.k << "x" << s.n;
        }
        // Batched matmul: batch and within-item sharding.
        Tensor a = Tensor::randn(Shape{4, 33, 65}, 5);
        Tensor b = Tensor::randn(Shape{4, 65, 50}, 7);
        EXPECT_TRUE(outputsBitIdentical({sd::bmm(a, b, {}, &region)},
                                        {sd::bmm(a, b)}))
            << platform::isaName(l);
        Tensor a1 = Tensor::randn(Shape{1, 37, 29}, 11);
        Tensor b1 = Tensor::randn(Shape{1, 29, 43}, 13);
        EXPECT_TRUE(outputsBitIdentical({sd::bmm(a1, b1, {}, &region)},
                                        {sd::bmm(a1, b1)}))
            << platform::isaName(l);
    }
}

TEST(IntraOpRaggedTest, Int8KernelsBitIdenticalUnderRegion)
{
    ThreadPool pool(3);
    ParallelRegion region(&pool);
    namespace qk = kernels::qnt;
    for (const GemmShape &s : kRaggedShapes) {
        Tensor x = Tensor::randn(Shape{s.m, s.k}, s.m * 3 + s.k, 2.0f);
        Tensor w = Tensor::randn(Shape{s.n, s.k}, s.n * 5 + s.k, 0.08f);
        Tensor bias = Tensor::randn(Shape{s.n}, s.n, 0.1f);
        Tensor ws = quant::perChannelScales(w);
        Tensor wtq = quant::packWeightInt8(w, ws);
        auto [xq, xs] = qk::quantizeActivation(x);
        float xscale = qk::scaleValue(xs);

        EXPECT_TRUE(outputsBitIdentical(
            {qk::w8LinearPacked(x, wtq, ws, bias, nullptr, 0, {},
                                &region)},
            {qk::w8LinearPacked(x, wtq, ws, bias, nullptr, 0)}))
            << "w8 " << s.m << "x" << s.k << "x" << s.n;

        // The simd int8 path at every level, over that level's own
        // (possibly dot-interleaved) packed layout.
        IsaGuard restore;
        for (platform::IsaLevel l : platform::supportedIsaLevels()) {
            platform::setActiveIsa(l);
            Tensor wp = kernels::sd::packInt8Weight(wtq);
            EXPECT_TRUE(outputsBitIdentical(
                {kernels::sd::int8LinearRequant(xq, xscale, wp, ws, bias,
                                                {}, &region)},
                {kernels::sd::int8LinearRequant(xq, xscale, wp, ws,
                                                bias)}))
                << platform::isaName(l) << " int8 " << s.m << "x" << s.k
                << "x" << s.n;
        }
    }
}

// ---- hybrid scheduling seams -----------------------------------------------

TEST(IntraOpSchedulerTest, OffModeNeverRunsDeepLevels)
{
    Graph g = models::findModel("vit_b").build(ModelConfig{1, 8, false,
                                                           0, 8});
    ThreadPool pool(4);
    ParallelExecutor ex(g, pool, simdBackend(), IntraOpMode::Off);
    ex.run(makeRequestInputs(g, 1));
    EXPECT_EQ(ex.profile().deepLevelCount(), 0);
    EXPECT_EQ(ex.profile().intraop, "off");
}

TEST(IntraOpSchedulerTest, OnModeRunsNarrowGemmLevelsDeep)
{
    Graph g = models::findModel("vit_b").build(ModelConfig{1, 8, false,
                                                           0, 8});
    ThreadPool pool(4);
    ParallelExecutor ex(g, pool, simdBackend(), IntraOpMode::On);
    ex.run(makeRequestInputs(g, 1));
    // A transformer trunk is narrower than 4 workers at its GEMM
    // levels: On must hand at least some of them to intra-op.
    EXPECT_GT(ex.profile().deepLevelCount(), 0);
    EXPECT_EQ(ex.profile().intraop, "on");
}

TEST(IntraOpSchedulerTest, SingleRequestBatchGoesDeepAndStaysIdentical)
{
    Graph g = models::findModel("gpt2").build(ModelConfig{1, 8, false,
                                                          0, 8});
    auto inputs = makeRequestInputs(g, 3);
    Executor ref(g, simdBackend());
    auto want = ref.run(inputs);

    ThreadPool pool(4);
    for (IntraOpMode mode :
         {IntraOpMode::Off, IntraOpMode::On, IntraOpMode::Auto}) {
        BatchDriver drv(g, pool, simdBackend(), mode);
        auto outs = drv.run({inputs});
        ASSERT_EQ(outs.size(), 1u);
        EXPECT_TRUE(outputsBitIdentical(outs[0], want))
            << "mode " << intraOpModeName(mode);
        EXPECT_EQ(drv.profile().intraop, intraOpModeName(mode));
    }
}

// ---- whole-registry differential suite -------------------------------------

class IntraOpAllModels : public ::testing::TestWithParam<std::string>
{
};

TEST_P(IntraOpAllModels, BitIdenticalAtEveryThreadCount)
{
    const auto &info = models::findModel(GetParam());
    ModelConfig cfg;
    cfg.batch = 1;
    cfg.seqLen = 8;
    cfg.testScale = 8;
    Graph g = info.build(cfg);
    auto inputs = makeRequestInputs(g, 42);

    const int hw = resolveThreads(0);
    std::vector<int> counts{1, 2};
    if (hw > 2)
        counts.push_back(hw);

    const std::vector<Backend> backends = fastBackends();
    for (const Backend &b : backends) {
        const Backend *backend = &b;
        Executor ref(g, *backend);
        auto want = ref.run(inputs);
        for (int threads : counts) {
            ThreadPool pool(threads);
            // Single-request batch: the whole graph runs under a
            // full-pool region — every GEMM shards.
            BatchDriver drv(g, pool, *backend, IntraOpMode::On);
            auto outs = drv.run({inputs});
            ASSERT_EQ(outs.size(), 1u);
            EXPECT_TRUE(outputsBitIdentical(outs[0], want))
                << info.name << " driver backend=" << backend->name()
                << " threads=" << threads;
            // Wavefront executor: hybrid per-level wide/deep.
            ParallelExecutor ex(g, pool, *backend, IntraOpMode::On);
            EXPECT_TRUE(outputsBitIdentical(ex.run(inputs), want))
                << info.name << " executor backend=" << backend->name()
                << " threads=" << threads;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllRegistryModels, IntraOpAllModels,
                         ::testing::ValuesIn([] {
                             std::vector<std::string> names;
                             for (const auto &m : models::modelRegistry())
                                 names.push_back(m.name);
                             return names;
                         }()));

// ---- int8 + fused epilogues ------------------------------------------------

TEST(IntraOpQuantFusedTest, QuantizedAndFusedGraphsBitIdenticalSharded)
{
    // The executable-int8 rewrite and the fused GEMM-epilogue paths
    // route through the same sharded tile loops; a representative
    // transformer + CNN pair covers requantize, acc, and w8 forms.
    const int hw = resolveThreads(0);
    const int threads = hw > 2 ? hw : 2;
    for (const char *model : {"gpt2", "vit_b", "resnet50"}) {
        Graph base = models::findModel(model).build(
            ModelConfig{1, 8, false, 0, 8});
        for (auto mode : {quant::QuantExecMode::Int8,
                          quant::QuantExecMode::WeightOnly}) {
            Graph gq = quant::applyQuantMode(base, mode);
            for (bool fuse : {false, true}) {
                Graph g = fuse ? applyFusion(gq, executableFusionConfig())
                               : gq;
                auto inputs = makeRequestInputs(g, 9);
                const std::vector<Backend> backends = fastBackends();
                for (const Backend &b : backends) {
                    const Backend *backend = &b;
                    Executor ref(g, *backend);
                    auto want = ref.run(inputs);
                    ThreadPool pool(threads);
                    BatchDriver drv(g, pool, *backend, IntraOpMode::On);
                    auto outs = drv.run({inputs});
                    ASSERT_EQ(outs.size(), 1u);
                    EXPECT_TRUE(outputsBitIdentical(outs[0], want))
                        << model << " quant="
                        << quant::quantModeName(mode)
                        << " fuse=" << fuse
                        << " backend=" << backend->name();
                }
            }
        }
    }
}

}  // namespace
}  // namespace ngb
