#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>

#include "graph/builder.h"
#include "graph/executor.h"
#include "graph/schedule.h"
#include "models/registry.h"
#include "platform/cost_model.h"
#include "deploy/flow.h"
#include "runtime/batch_driver.h"
#include "runtime/memory_planner.h"
#include "runtime/parallel_executor.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"
#include "tensor/scratch.h"

namespace ngb {
namespace {

// ---- helpers --------------------------------------------------------------

std::vector<Tensor>
makeInputs(const Graph &g, uint64_t seed)
{
    return makeRequestInputs(g, seed);
}

::testing::AssertionResult
outputsBitIdentical(const std::vector<Tensor> &a,
                    const std::vector<Tensor> &b)
{
    std::string diff = bitDifference(a, b);
    if (diff.empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << diff;
}

Graph
tinyResidualGraph()
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{1, 4, 16});
    Value h = b.layerNorm(x);
    h = b.linear(h, 16, true, "fc");
    h = b.gelu(h);
    b.output(b.add(x, h));
    return g;
}

// ---- Schedule -------------------------------------------------------------

TEST(ScheduleTest, SerialScheduleIsTopologicalOrder)
{
    Graph g = tinyResidualGraph();
    Schedule s = Schedule::serial(g);
    EXPECT_EQ(s.kind(), Schedule::Kind::Serial);
    EXPECT_EQ(s.numLevels(), g.size());
    for (size_t i = 0; i < g.size(); ++i)
        EXPECT_EQ(s.order()[i], static_cast<int>(i));
}

TEST(ScheduleTest, WavefrontLevelsRespectDependencies)
{
    Graph g = models::findModel("swin_t").build(
        ModelConfig{1, 8, false, 0, 8});
    Schedule s = Schedule::wavefront(g);
    for (const Node &n : g.nodes())
        for (const Value &v : n.inputs)
            EXPECT_LT(s.levelOf(v.node), s.levelOf(n.id));
    // Every node appears exactly once across the levels.
    std::set<int> seen;
    for (const auto &lvl : s.levels())
        for (int id : lvl)
            EXPECT_TRUE(seen.insert(id).second);
    EXPECT_EQ(seen.size(), g.size());
    // Parallelism exists: fewer levels than nodes.
    EXPECT_LT(s.numLevels(), g.size());
    EXPECT_GT(s.stats().maxWidth, 1u);
}

TEST(ScheduleTest, ExecutorAcceptsPluggedWavefrontSchedule)
{
    Graph g = tinyResidualGraph();
    Tensor in = Tensor::randn(Shape{1, 4, 16}, 42);
    Executor ref(g);
    Executor wave(g, Schedule::wavefront(g));
    EXPECT_TRUE(outputsBitIdentical(ref.run({in}), wave.run({in})));
}

// ---- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, ExecutesEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(), [&](size_t i, int) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadPoolDegradesToSerial)
{
    ThreadPool pool(1);
    std::vector<int> order;
    pool.parallelFor(8, [&](size_t i, int w) {
        EXPECT_EQ(w, 0);
        order.push_back(static_cast<int>(i));
    });
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, BackToBackRegionsNeverLoseATask)
{
    // Tiny regions in a tight loop on an oversubscribed pool: a worker
    // still looping on region k pops region k+1's tasks the moment they
    // are dealt. Each such task must count against region k+1 — a lost
    // decrement hangs the join (the ctest timeout names this case).
    ThreadPool pool(8);
    std::atomic<int64_t> sum{0};
    int64_t want = 0;
    for (int it = 0; it < 20000; ++it) {
        const size_t n = 2 + static_cast<size_t>(it % 7);
        pool.parallelFor(n, [&](size_t i, int) {
            sum += static_cast<int64_t>(i);
        });
        want += static_cast<int64_t>(n * (n - 1) / 2);
    }
    EXPECT_EQ(sum.load(), want);
}

TEST(ThreadPoolTest, PresizeScratchGivesEveryWorkerThePeakBlock)
{
    ThreadPool pool(4);
    {
        // Raise the process scratch high-water mark on this thread.
        ScratchScope scope;
        scratchEmpty(Shape{int64_t(1) << 20}, DType::F32);
    }
    const int64_t peak = ScratchArena::globalHighWaterBytes();
    pool.presizeScratch();
    // Each task waits until all four are running, so the four land on
    // four distinct worker threads; each reads its own arena.
    std::vector<int64_t> reserved(4, 0);
    std::atomic<int> arrived{0};
    pool.parallelFor(4, [&](size_t, int w) {
        reserved[static_cast<size_t>(w)] =
            ScratchArena::local().reservedBytes();
        ++arrived;
        auto t0 = std::chrono::steady_clock::now();
        while (arrived.load() < 4 &&
               std::chrono::steady_clock::now() - t0 <
                   std::chrono::seconds(10))
            std::this_thread::yield();
    });
    EXPECT_EQ(arrived.load(), 4);
    for (int64_t r : reserved)
        EXPECT_GE(r, peak);
    // No new peak: a second call allocates nothing.
    uint64_t before = Storage::heapAllocCount();
    pool.presizeScratch();
    EXPECT_EQ(Storage::heapAllocCount(), before);
}

TEST(ThreadPoolTest, TaskExceptionPropagatesWithoutDeadlock)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](size_t i, int) {
                                      if (i == 13)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // Pool is still usable afterwards.
    std::atomic<int> n{0};
    pool.parallelFor(32, [&](size_t, int) { ++n; });
    EXPECT_EQ(n.load(), 32);
}

TEST(ThreadPoolTest, ZeroAndNegativeRequestsResolveToAtLeastOneWorker)
{
    // Regression: --threads 0 (and hosts where hardware_concurrency()
    // returns 0) must yield a working pool, never an empty one.
    EXPECT_GE(resolveThreads(0), 1);
    EXPECT_GE(resolveThreads(-4), 1);
    EXPECT_EQ(resolveThreads(3), 3);

    for (int requested : {0, -2}) {
        ThreadPool pool(requested);
        EXPECT_GE(pool.threads(), 1);
        std::atomic<int> n{0};
        pool.parallelFor(16, [&](size_t, int) { ++n; });
        EXPECT_EQ(n.load(), 16);
    }
}

TEST(ThreadPoolTest, StatsAccountForAllTasks)
{
    ThreadPool pool(3);
    pool.drainStats();
    pool.parallelFor(100, [&](size_t, int) {});
    int64_t tasks = 0;
    for (const auto &ws : pool.drainStats())
        tasks += ws.tasks;
    EXPECT_EQ(tasks, 100);
}

// ---- MemoryPlanner --------------------------------------------------------

class PlannerAllModels : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PlannerAllModels, NeverAliasesLiveTensorsAndReusesMemory)
{
    const auto &info = models::findModel(GetParam());
    ModelConfig cfg;
    cfg.batch = 1;
    cfg.seqLen = 8;
    cfg.testScale = 8;
    Graph g = info.build(cfg);
    Schedule s = Schedule::wavefront(g);
    MemoryPlan plan = planMemory(g, s);

    ASSERT_FALSE(plan.placements.empty()) << info.name;
    // Lifetime-overlap assertion: no two concurrently live tensors may
    // share arena bytes.
    EXPECT_TRUE(verifyNoAliasing(plan)) << info.name;
    // Reuse actually happens: peak arena <= no-reuse footprint.
    EXPECT_LE(plan.arenaBytes, plan.totalBytes) << info.name;
    // Sanity: every placement fits inside the arena.
    for (const TensorPlacement &p : plan.placements) {
        EXPECT_GE(p.offset, 0) << info.name;
        EXPECT_LE(p.offset + p.bytes, plan.arenaBytes) << info.name;
        EXPECT_LE(p.firstLevel, p.lastLevel) << info.name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllRegistryModels, PlannerAllModels,
                         ::testing::ValuesIn([] {
                             std::vector<std::string> names;
                             for (const auto &m : models::modelRegistry())
                                 names.push_back(m.name);
                             return names;
                         }()));

TEST(MemoryPlannerTest, SequentialChainReusesBuffers)
{
    // A long elementwise chain: only ~2 tensors are ever live, so the
    // arena must be far below the no-reuse sum.
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{64, 64});
    Value h = x;
    for (int i = 0; i < 16; ++i)
        h = b.relu(h);
    b.output(h);
    MemoryPlan plan = planMemory(g, Schedule::wavefront(g));
    EXPECT_TRUE(verifyNoAliasing(plan));
    EXPECT_GE(plan.reuseFactor(), 4.0);
}

TEST(MemoryPlannerTest, EmptyGraphPlansNothing)
{
    Graph g;
    MemoryPlan plan = planMemory(g, Schedule::wavefront(g));
    EXPECT_TRUE(plan.placements.empty());
    EXPECT_EQ(plan.arenaBytes, 0);
    EXPECT_EQ(plan.totalBytes, 0);
    EXPECT_TRUE(verifyNoAliasing(plan));
}

TEST(MemoryPlannerTest, SingleNodeGraphsPlanOnlyComputedTensors)
{
    // Input-only graph: the sole tensor is caller-owned, nothing to plan.
    Graph g;
    GraphBuilder b(g);
    b.output(b.input(Shape{4}));
    MemoryPlan plan = planMemory(g, Schedule::wavefront(g));
    EXPECT_TRUE(plan.placements.empty());
    EXPECT_EQ(plan.arenaBytes, 0);
    EXPECT_TRUE(verifyNoAliasing(plan));

    // One compute node: exactly its output is planned, and the arena
    // is exactly that (aligned) tensor.
    Graph g2;
    GraphBuilder b2(g2);
    b2.output(b2.relu(b2.input(Shape{8, 8})));
    MemoryPlan plan2 = planMemory(g2, Schedule::wavefront(g2));
    ASSERT_EQ(plan2.placements.size(), 1u);
    EXPECT_EQ(plan2.arenaBytes, plan2.totalBytes);
    EXPECT_EQ(plan2.arenaBytes, plan2.placements[0].bytes);
    EXPECT_TRUE(verifyNoAliasing(plan2));
}

TEST(MemoryPlannerTest, AllTensorsLiveToEndForbidReuse)
{
    // Every computed tensor is a graph output, so all lifetimes extend
    // to the last level: peak must equal the no-reuse footprint.
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{32, 32});
    for (int i = 0; i < 6; ++i)
        b.output(b.relu(x));
    MemoryPlan plan = planMemory(g, Schedule::wavefront(g));
    ASSERT_EQ(plan.placements.size(), 6u);
    EXPECT_TRUE(verifyNoAliasing(plan));
    EXPECT_EQ(plan.arenaBytes, plan.totalBytes);
}

TEST(MemoryPlannerTest, FragmentationProneLifetimesStillPackSafely)
{
    // Alternating wide/narrow activations plus a pinned early output —
    // the hole-punching pattern that fragments naive first-fit
    // allocators. The planner must stay alias-free and no worse than
    // the no-reuse footprint while still reusing the wide slots.
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{1, 4, 16});
    Value pinned = b.linear(x, 256, false, "pin");
    b.output(pinned);  // lives to the end, mid-arena
    Value h = x;
    for (int i = 0; i < 6; ++i) {
        h = b.linear(h, 256, false, "wide" + std::to_string(i));
        h = b.linear(h, 8, false, "narrow" + std::to_string(i));
    }
    b.output(b.add(b.linear(h, 256, false, "up"), pinned));
    MemoryPlan plan = planMemory(g, Schedule::wavefront(g));
    EXPECT_TRUE(verifyNoAliasing(plan));
    EXPECT_LE(plan.arenaBytes, plan.totalBytes);
    // The six wide intermediates die quickly; reuse must pay off.
    EXPECT_GE(plan.reuseFactor(), 2.0);
}

TEST(MemoryPlannerTest, GraphOutputsStayLiveToTheEnd)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{8});
    Value early = b.relu(x);   // graph output produced early
    b.output(early);
    Value h = b.gelu(x);
    h = b.silu(h);
    b.output(h);
    Schedule s = Schedule::wavefront(g);
    MemoryPlan plan = planMemory(g, s);
    const TensorPlacement *p = plan.find({early.node, 0});
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->lastLevel, static_cast<int>(s.numLevels()) - 1);
}

// ---- ParallelExecutor: bit-identical to the serial Executor ---------------

class RuntimeAllModels : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RuntimeAllModels, ParallelOutputsBitIdenticalToSerial)
{
    const auto &info = models::findModel(GetParam());
    ModelConfig cfg;
    cfg.batch = 1;
    cfg.seqLen = 8;
    cfg.testScale = 8;
    Graph g = info.build(cfg);
    std::vector<Tensor> inputs = makeInputs(g, 1234);

    Executor serial(g);
    std::vector<Tensor> want = serial.run(inputs);

    ThreadPool pool(4);
    ParallelExecutor parallel(g, pool);
    std::vector<Tensor> got = parallel.run(inputs);
    EXPECT_TRUE(outputsBitIdentical(want, got)) << info.name;

    const RuntimeProfile &p = parallel.profile();
    EXPECT_EQ(p.threads, 4);
    EXPECT_GT(p.wallUs, 0);
    EXPECT_GT(p.sumUs, 0);
    EXPECT_EQ(p.levels.size(), parallel.schedule().numLevels());
    EXPECT_EQ(p.threadBusyUs.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(AllRegistryModels, RuntimeAllModels,
                         ::testing::ValuesIn([] {
                             std::vector<std::string> names;
                             for (const auto &m : models::modelRegistry())
                                 names.push_back(m.name);
                             return names;
                         }()));

TEST(ParallelExecutorTest, RepeatedRunsAreDeterministic)
{
    Graph g = models::findModel("gpt2").build(ModelConfig{1, 8, false, 0, 8});
    std::vector<Tensor> inputs = makeInputs(g, 7);
    ThreadPool pool(4);
    ParallelExecutor ex(g, pool);
    std::vector<Tensor> first = ex.run(inputs);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(outputsBitIdentical(first, ex.run(inputs)));
}

// ---- BatchDriver ----------------------------------------------------------

TEST(BatchDriverTest, EveryRequestMatchesSerialReference)
{
    Graph g = models::findModel("vit_b").build(ModelConfig{1, 8, false, 0, 8});
    std::vector<std::vector<Tensor>> reqs;
    for (size_t r = 0; r < 6; ++r)
        reqs.push_back(makeInputs(g, 100 + r));

    ThreadPool pool(3);
    BatchDriver driver(g, pool);
    std::vector<std::vector<Tensor>> outs = driver.run(reqs);
    ASSERT_EQ(outs.size(), reqs.size());

    Executor serial(g);
    for (size_t r = 0; r < reqs.size(); ++r)
        EXPECT_TRUE(outputsBitIdentical(serial.run(reqs[r]), outs[r]))
            << "request " << r;

    const RuntimeProfile &p = driver.profile();
    EXPECT_EQ(p.requests, 6);
    EXPECT_GT(p.planUs, 0);
    EXPECT_TRUE(verifyNoAliasing(driver.memoryPlan()));
}

TEST(BatchDriverTest, IdenticalRequestsProduceIdenticalOutputs)
{
    Graph g = models::findModel("segformer")
                  .build(ModelConfig{1, 8, false, 0, 8});
    std::vector<std::vector<Tensor>> reqs(4, makeInputs(g, 55));
    ThreadPool pool(4);
    BatchDriver driver(g, pool);
    auto outs = driver.run(reqs);
    for (size_t r = 1; r < outs.size(); ++r)
        EXPECT_TRUE(outputsBitIdentical(outs[0], outs[r]));
}

TEST(BatchDriverTest, RejectsMalformedRequest)
{
    Graph g = tinyResidualGraph();
    ThreadPool pool(2);
    BatchDriver driver(g, pool);
    std::vector<std::vector<Tensor>> reqs = {
        {Tensor::zeros(Shape{1, 4, 16})},
        {Tensor::zeros(Shape{2, 4, 16})},  // wrong shape
    };
    EXPECT_THROW(driver.run(reqs), std::runtime_error);
}

// ---- CostModel critical path ----------------------------------------------

TEST(CriticalPathTest, BoundedByMaxGroupAndSerialSum)
{
    Graph g = models::findModel("vit_b").build(ModelConfig{1, 8, false, 0, 1});
    auto flow = makeFlow("pytorch");
    ExecutionPlan plan = flow->plan(g, FlowOptions{});
    CostModel cm(platformById("A"));

    double serial = cm.latencyUs(plan);
    double path = cm.criticalPathUs(plan);
    EXPECT_GT(path, 0);
    EXPECT_LE(path, serial + 1e-6);

    double max_group = 0;
    for (const KernelGroup &kg : plan.groups)
        max_group = std::max(max_group, cm.price(kg).totalUs());
    EXPECT_GE(path + 1e-6, max_group);
}

TEST(CriticalPathTest, ParallelGraphHasShorterCriticalPath)
{
    // Two independent heavy branches: the critical path must be well
    // below the serial sum.
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{1, 64, 64});
    Value a = b.linear(x, 64, true, "a");
    Value c = b.linear(x, 64, true, "c");
    b.output(b.add(a, c));
    auto flow = makeFlow("pytorch");
    ExecutionPlan plan = flow->plan(g, FlowOptions{});
    CostModel cm(platformById("A"));
    EXPECT_LT(cm.criticalPathUs(plan), cm.latencyUs(plan));
}

}  // namespace
}  // namespace ngb
