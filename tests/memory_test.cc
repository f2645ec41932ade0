#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "backend_sets.h"
#include "deploy/fusion.h"
#include "graph/builder.h"
#include "graph/executor.h"
#include "models/registry.h"
#include "runtime/arena.h"
#include "runtime/batch_driver.h"
#include "runtime/memory_planner.h"
#include "runtime/parallel_executor.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "tensor/scratch.h"

/**
 * @file
 * Executable memory planning: arena-backed allocation from Storage
 * through the serving loop.
 *
 *  - Storage allocation accounting, uninitialized/poisoned/external
 *    buffers, Tensor::empty / copyFrom semantics;
 *  - the thread-local scratch arena (growth, reclaim, steady state);
 *  - MemoryPlan O(1) lookup and alias-aware lifetime extension;
 *  - ArenaAllocator placement binding and ArenaPool recycling;
 *  - heap-vs-arena bit-identity across the registry under both
 *    backends, serial/wavefront/batched/fused execution;
 *  - the allocation-count regression: a warmed-up driver or serving
 *    engine performs ZERO tensor mallocs per request.
 */

namespace ngb {
namespace {

// Sanitized builds run the kernels an order of magnitude slower, so
// the whole-registry sweeps sample every third model there (the
// ASan/TSan CI leg still covers every model class and both backends)
// and the stress loops shorten. Plain builds sweep everything.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr size_t kModelStride = 3;
constexpr int kStressIters = 5;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr size_t kModelStride = 3;
constexpr int kStressIters = 5;
#else
constexpr size_t kModelStride = 1;
constexpr int kStressIters = 20;
#endif
#else
constexpr size_t kModelStride = 1;
constexpr int kStressIters = 20;
#endif

::testing::AssertionResult
outputsBitIdentical(const std::vector<Tensor> &a,
                    const std::vector<Tensor> &b)
{
    std::string diff = bitDifference(a, b);
    if (diff.empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << diff;
}

// ---- Storage accounting & uninitialized allocation ------------------------

TEST(StorageTest, HeapAllocationIsCounted)
{
    uint64_t c0 = Storage::heapAllocCount();
    uint64_t b0 = Storage::heapAllocBytes();
    int64_t l0 = Storage::liveBytes();
    {
        Tensor t = Tensor::empty(Shape{64, 64}, DType::F32);
        EXPECT_EQ(Storage::heapAllocCount(), c0 + 1);
        EXPECT_EQ(Storage::heapAllocBytes(), b0 + 64 * 64 * 4);
        EXPECT_EQ(Storage::liveBytes(), l0 + 64 * 64 * 4);
    }
    EXPECT_EQ(Storage::liveBytes(), l0);  // freed on last release
    EXPECT_GE(Storage::peakLiveBytes(), l0 + 64 * 64 * 4);
}

TEST(StorageTest, ExternalMemoryIsNotCountedOrFreed)
{
    std::vector<float> backing(16, 7.5f);
    uint64_t c0 = Storage::heapAllocCount();
    {
        Tensor t = Tensor::fromExternal(backing.data(), Shape{4, 4});
        EXPECT_EQ(Storage::heapAllocCount(), c0);
        EXPECT_FALSE(t.storage()->ownsMemory());
        EXPECT_FLOAT_EQ(t.flatAt(5), 7.5f);
        t.flatSet(5, 1.25f);  // writes through to caller memory
    }
    EXPECT_FLOAT_EQ(backing[5], 1.25f);
}

TEST(StorageTest, PoisonFillsUninitializedBuffers)
{
    bool was = Storage::poisonEnabled();
    Storage::setPoison(true);
    Tensor t = Tensor::empty(Shape{32}, DType::F32);
    const uint8_t *raw = t.storage()->raw();
    for (size_t i = 0; i < 32 * 4; ++i)
        ASSERT_EQ(raw[i], Storage::kPoisonByte) << "byte " << i;
    // zeros() must stay zero-filled regardless of poison.
    Tensor z = Tensor::zeros(Shape{8});
    for (int64_t i = 0; i < z.numel(); ++i)
        EXPECT_EQ(z.flatAt(i), 0.0f);
    Storage::setPoison(was);
}

TEST(TensorTest, ValueFactoriesFullyWriteUninitializedBuffers)
{
    bool was = Storage::poisonEnabled();
    Storage::setPoison(true);  // leftovers would be 0xA5 garbage
    Tensor f = Tensor::full(Shape{3, 5}, 2.0f, DType::F16);
    for (int64_t i = 0; i < f.numel(); ++i)
        EXPECT_EQ(f.flatAt(i), 2.0f);
    Tensor a = Tensor::arange(Shape{7});
    for (int64_t i = 0; i < a.numel(); ++i)
        EXPECT_EQ(a.flatAt(i), static_cast<float>(i));
    Tensor r = Tensor::randn(Shape{64}, 5);
    for (int64_t i = 0; i < r.numel(); ++i)
        EXPECT_TRUE(std::isfinite(r.flatAt(i)));
    Storage::setPoison(was);
}

TEST(TensorTest, CopyFromHandlesStridesShapesAndDtypes)
{
    Tensor src = Tensor::arange(Shape{4, 6});
    // Rank change, same numel (the reshape semantics).
    Tensor flat = Tensor::empty(Shape{24}).copyFrom(src);
    for (int64_t i = 0; i < 24; ++i)
        EXPECT_EQ(flat.flatAt(i), src.flatAt(i));
    // Non-contiguous source: logical (row-major) order is preserved.
    Tensor tr = src.transpose(0, 1);
    Tensor dst = Tensor::empty(Shape{6, 4}).copyFrom(tr);
    for (int64_t i = 0; i < 24; ++i)
        EXPECT_EQ(dst.flatAt(i), tr.flatAt(i));
    // Dtype conversion.
    Tensor half = Tensor::empty(Shape{4, 6}, DType::F16).copyFrom(src);
    EXPECT_EQ(half.flatAt(7), src.flatAt(7));  // small ints exact in f16
    EXPECT_THROW(Tensor::empty(Shape{5}).copyFrom(src),
                 std::runtime_error);
}

// ---- Scratch arena --------------------------------------------------------

TEST(ScratchTest, FallsBackToHeapOutsideAnyScope)
{
    Tensor t = scratchEmpty(Shape{8});
    EXPECT_FALSE(isScratch(t));
    t.flatSet(0, 1.0f);  // usable
}

TEST(ScratchTest, ScopedAllocationsAreArenaBackedAndReclaimed)
{
    uint64_t warm;
    {
        ScratchScope warmup;  // force block growth once
        scratchEmpty(Shape{1024});
        warm = Storage::heapAllocCount();
    }
    {
        ScratchScope scope;
        Tensor a = scratchEmpty(Shape{256});
        Tensor b = scratchEmpty(Shape{256});
        EXPECT_TRUE(isScratch(a));
        EXPECT_TRUE(isScratch(b));
        EXPECT_NE(a.dataF32(), b.dataF32());
        EXPECT_EQ(Storage::heapAllocCount(), warm);  // no new blocks
    }
    {
        // The scope reclaimed: same bytes are handed out again.
        ScratchScope scope;
        Tensor c = scratchEmpty(Shape{256});
        EXPECT_TRUE(isScratch(c));
        EXPECT_EQ(Storage::heapAllocCount(), warm);
    }
    EXPECT_GT(ScratchArena::local().highWaterBytes(), 0);
}

TEST(ScratchTest, NestedScopesReclaimOnlyTheirOwnAllocations)
{
    ScratchScope outer;
    Tensor keep = scratchEmpty(Shape{16});
    keep.fillZero();
    float *inner_ptr = nullptr;
    {
        ScratchScope inner;
        Tensor tmp = scratchEmpty(Shape{16});
        inner_ptr = tmp.dataF32();
    }
    // The inner allocation was reclaimed, the outer one untouched.
    Tensor again = scratchEmpty(Shape{16});
    EXPECT_EQ(again.dataF32(), inner_ptr);
    for (int64_t i = 0; i < keep.numel(); ++i)
        EXPECT_EQ(keep.flatAt(i), 0.0f);
}

TEST(ScratchTest, ToContiguousHelpersPassThroughWithoutCopy)
{
    Tensor x = Tensor::arange(Shape{4, 4});
    EXPECT_EQ(toContiguousF32(x).storage().get(), x.storage().get());
    EXPECT_EQ(toContiguous(x).storage().get(), x.storage().get());
    ScratchScope scope;
    Tensor m = toContiguousF32(x.transpose(0, 1));
    EXPECT_TRUE(m.isContiguous());
    EXPECT_TRUE(isScratch(m));
    for (int64_t i = 0; i < m.numel(); ++i)
        EXPECT_EQ(m.flatAt(i), x.transpose(0, 1).flatAt(i));
}

// ---- MemoryPlan lookup & alias-aware lifetimes ----------------------------

TEST(MemoryPlanTest, IndexedFindMatchesExhaustiveScan)
{
    ModelConfig mc;
    mc.batch = 1;
    mc.seqLen = 8;
    mc.testScale = 8;
    Graph g = models::findModel("swin_t").build(mc);
    Schedule s = Schedule::wavefront(g);
    MemoryPlan plan = planMemory(g, s);
    ASSERT_FALSE(plan.placements.empty());
    for (const Node &n : g.nodes()) {
        for (size_t i = 0; i < n.outShapes.size(); ++i) {
            Value v{n.id, static_cast<int>(i)};
            const TensorPlacement *got = plan.find(v);
            const TensorPlacement *want = nullptr;
            for (const TensorPlacement &p : plan.placements)
                if (p.value == v)
                    want = &p;
            EXPECT_EQ(got, want) << "node " << n.id << " out " << i;
        }
    }
    EXPECT_EQ(plan.find({999999, 0}), nullptr);
}

TEST(MemoryPlanTest, ViewLifetimesExtendTheirProducer)
{
    // x -> relu -> permute(view) -> ... long tail ... ; the permute's
    // consumer runs levels later, so relu's buffer must stay live
    // until then even though relu itself has no later direct reader.
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{4, 8, 16});
    Value r = b.relu(x);
    Value p = b.permute(r, {0, 2, 1});
    // A chain on an unrelated branch to create intermediate levels.
    Value other = b.gelu(b.relu(b.gelu(b.relu(x))));
    Value pc = b.contiguous(p);
    b.output(b.add(pc, b.permute(other, {0, 2, 1})));
    Schedule s = Schedule::wavefront(g);
    MemoryPlan plan = planMemory(g, s);

    const TensorPlacement *relu_p = plan.find({r.node, 0});
    const TensorPlacement *perm_p = plan.find({p.node, 0});
    ASSERT_NE(relu_p, nullptr);
    ASSERT_NE(perm_p, nullptr);
    // The producer lives at least as long as its view.
    EXPECT_GE(relu_p->lastLevel, perm_p->lastLevel);
    EXPECT_TRUE(verifyNoAliasing(plan));
}

TEST(MemoryPlanTest, AliasChainsExtendTransitively)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{2, 6, 10});
    Value r = b.relu(x);
    Value v1 = b.permute(r, {0, 2, 1});
    Value v2 = b.slice(v1, 1, 0, 5);
    Value v3 = b.squeeze(b.unsqueeze(v2, 0), 0);
    b.output(b.relu(v3));
    MemoryPlan plan = planMemory(g, Schedule::wavefront(g));
    const TensorPlacement *root = plan.find({r.node, 0});
    const TensorPlacement *leaf = plan.find({v3.node, 0});
    ASSERT_NE(root, nullptr);
    ASSERT_NE(leaf, nullptr);
    EXPECT_GE(root->lastLevel, leaf->lastLevel);
}

// ---- ArenaAllocator / ArenaPool -------------------------------------------

TEST(ArenaAllocatorTest, BindsPlannedValuesAtTheirOffsets)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{4, 32});
    Value h = b.gelu(b.linear(b.relu(x), 32, true, "fc"));
    b.output(h);
    MemoryPlan plan = planMemory(g, Schedule::wavefront(g));
    ASSERT_GT(plan.arenaBytes, 0);

    auto block = std::make_shared<Storage>(
        static_cast<size_t>(plan.arenaBytes), /*zero=*/false);
    ArenaAllocator alloc(plan, block);
    uint64_t c0 = Storage::heapAllocCount();
    for (const TensorPlacement &p : plan.placements) {
        const Node &n = g.node(p.value.node);
        Tensor t = alloc.allocate(n, static_cast<size_t>(p.value.index));
        EXPECT_TRUE(t.isContiguous());
        EXPECT_EQ(t.storage().get(), block.get());
        EXPECT_EQ(t.offset() * static_cast<int64_t>(dtypeSize(t.dtype())),
                  p.offset);
    }
    EXPECT_EQ(Storage::heapAllocCount(), c0);  // zero mallocs
    EXPECT_EQ(alloc.fallbacks(), 0);
    EXPECT_EQ(alloc.planned(),
              static_cast<int64_t>(plan.placements.size()));
    EXPECT_LE(alloc.boundPeakBytes(), plan.arenaBytes);

    // Unplanned values fall back to the heap and are counted.
    Node fake;
    fake.id = 424242;
    fake.outShapes = {Shape{3}};
    fake.outDtypes = {DType::F32};
    Tensor f = alloc.allocate(fake, 0);
    EXPECT_NE(f.storage().get(), block.get());
    EXPECT_EQ(alloc.fallbacks(), 1);
}

TEST(ArenaPoolTest, RecyclesBlocksOnceOutputsAreDropped)
{
    ArenaPool pool;
    pool.configure(4096);
    auto b1 = pool.acquire();
    Storage *p1 = b1.get();
    b1.reset();  // caller dropped every output view
    auto b2 = pool.acquire();
    EXPECT_EQ(b2.get(), p1);  // same block reused
    EXPECT_EQ(pool.blocks(), 1u);

    // A still-referenced block must NOT be handed out again.
    auto b3 = pool.acquire();
    EXPECT_NE(b3.get(), b2.get());
    EXPECT_EQ(pool.blocks(), 2u);
}

// ---- Heap-vs-arena bit-identity across the registry -----------------------

TEST(ArenaExecutionTest, BitIdenticalToHeapAcrossRegistryAndBackends)
{
    ThreadPool pool(4);
    const auto &registry = models::modelRegistry();
    for (size_t mi = 0; mi < registry.size(); mi += kModelStride) {
        const auto &info = registry[mi];
        ModelConfig mc;
        mc.batch = 1;
        mc.seqLen = 8;
        mc.testScale = 8;
        Graph g = info.build(mc);
        std::vector<std::vector<Tensor>> reqs = {makeRequestInputs(g, 1),
                                                 makeRequestInputs(g, 2)};
        const std::vector<Backend> fast = fastBackends();
        for (const Backend *backend : withReference(fast)) {
            // Serial heap walk = the ground truth for this backend.
            Executor serial(g, *backend);
            std::vector<std::vector<Tensor>> want = {
                serial.run(reqs[0]), serial.run(reqs[1])};

            ParallelExecutor wavefront(g, pool, *backend);
            EXPECT_TRUE(outputsBitIdentical(wavefront.run(reqs[0]),
                                            want[0]))
                << info.name << " wavefront/" << backend->name();

            BatchDriver batch(g, pool, *backend);
            std::vector<std::vector<Tensor>> got = batch.run(reqs);
            for (size_t r = 0; r < reqs.size(); ++r)
                EXPECT_TRUE(outputsBitIdentical(got[r], want[r]))
                    << info.name << " batch/" << backend->name()
                    << " request " << r;
            EXPECT_GT(batch.profile().memory.arenaTensors, 0)
                << info.name;
        }
    }
}

TEST(ArenaExecutionTest, FusedGraphsBitIdenticalToHeapFused)
{
    ThreadPool pool(4);
    const auto &registry = models::modelRegistry();
    for (size_t mi = 0; mi < registry.size(); mi += kModelStride) {
        const auto &info = registry[mi];
        ModelConfig mc;
        mc.batch = 1;
        mc.seqLen = 8;
        mc.testScale = 8;
        Graph g = applyFusion(info.build(mc), executableFusionConfig());
        std::vector<Tensor> inputs = makeRequestInputs(g, 3);
        // Same backend, same fused graph: arena vs heap must be
        // bit-identical (the fused-vs-unfused contract is
        // fusion_exec_test's job).
        Executor serial(g, referenceBackend());
        std::vector<Tensor> want = serial.run(inputs);
        BatchDriver arena_driver(g, pool, referenceBackend());
        EXPECT_TRUE(
            outputsBitIdentical(arena_driver.run({inputs})[0], want))
            << info.name << " fused arena";
    }
}

// ---- Allocation-count regression ------------------------------------------

/**
 * Run @p round until one full iteration performs zero Storage heap
 * allocations (work stealing decides which pool worker first sees
 * which node, so per-thread scratch arenas can grow on any early
 * round), then return the allocations of three further iterations —
 * the steady state a serving loop lives in. Fails the test if the
 * warm-up never quiesces.
 */
template <typename F>
uint64_t
steadyStateAllocs(F round, int max_warmup = 40)
{
    // One clean round is not quiescence: stealing decides which worker
    // executes which node, so a cold worker can still grow its scratch
    // arena rounds later. Demand several consecutive alloc-free rounds
    // — by then every worker has almost surely seen the peak-demand
    // nodes — before opening the measured window.
    int quiet = 0;
    for (int i = 0; i < max_warmup && quiet < 3; ++i) {
        uint64_t before = Storage::heapAllocCount();
        round();
        quiet = Storage::heapAllocCount() == before ? quiet + 1 : 0;
    }
    if (quiet < 3) {
        ADD_FAILURE() << "allocations never quiesced in " << max_warmup
                      << " warm-up rounds";
        return ~uint64_t{0};
    }
    uint64_t before = Storage::heapAllocCount();
    for (int j = 0; j < 3; ++j)
        round();
    return Storage::heapAllocCount() - before;
}

uint64_t
steadyStateBatchAllocs(const std::string &model, const Backend &backend,
                       ThreadPool &pool)
{
    ModelConfig mc;
    mc.batch = 1;
    mc.seqLen = 8;
    mc.testScale = 8;
    Graph g = models::findModel(model).build(mc);
    std::vector<std::vector<Tensor>> reqs = {makeRequestInputs(g, 1),
                                             makeRequestInputs(g, 2)};
    BatchDriver driver(g, pool, backend);
    // Outputs dropped each round -> blocks and scratch recycle.
    return steadyStateAllocs([&] { driver.run(reqs); });
}

TEST(AllocationRegressionTest, SteadyStateBatchDriverIsMallocFree)
{
    ThreadPool pool(4);
    for (const char *model : {"vit_b", "gpt2", "resnet50", "bert",
                              "mobilenet_v2", "swin_t"}) {
        EXPECT_EQ(steadyStateBatchAllocs(model, referenceBackend(), pool),
                  0u)
            << model << " reference";
        EXPECT_EQ(steadyStateBatchAllocs(model, simdBackend(), pool), 0u)
            << model << " simd";
        EXPECT_EQ(steadyStateBatchAllocs(
                      model, makeSimdBackend(platform::IsaLevel::Scalar),
                      pool),
                  0u)
            << model << " simd portable";
    }
}

TEST(AllocationRegressionTest, SteadyStateWavefrontIsMallocFree)
{
    ThreadPool pool(4);
    ModelConfig mc;
    mc.batch = 1;
    mc.seqLen = 8;
    mc.testScale = 8;
    Graph g = models::findModel("vit_b").build(mc);
    std::vector<Tensor> inputs = makeRequestInputs(g, 1);
    ParallelExecutor ex(g, pool, referenceBackend());
    // Outputs dropped between runs -> the one block recycles.
    EXPECT_EQ(steadyStateAllocs([&] { ex.run(inputs); }), 0u);
    EXPECT_EQ(ex.profile().memory.heapAllocs, 0);
    EXPECT_GT(ex.profile().memory.arenaTensors, 0);
    EXPECT_GT(ex.profile().memory.boundPeakBytes, 0);
}

TEST(AllocationRegressionTest, SteadyStateServingEngineIsMallocFree)
{
    ThreadPool pool(2);
    serve::EngineConfig cfg;
    cfg.scale = 8;
    cfg.seqLen = 8;
    serve::EngineCache cache(pool, cfg);
    serve::Engine &engine = cache.get("gpt2");
    std::vector<std::vector<Tensor>> reqs = {
        makeRequestInputs(engine.graph(), 11),
        makeRequestInputs(engine.graph(), 12)};
    EXPECT_EQ(steadyStateAllocs([&] { engine.run(reqs); }), 0u);
    EXPECT_GT(engine.arenaBlocks(), 0u);
    auto stats = cache.stats();
    EXPECT_GT(stats.arenaBlocks, 0u);
    EXPECT_GT(stats.arenaBlockBytes, 0);
}

// ---- Wavefront stress: planner no-alias under real concurrent writes ------

TEST(ArenaStressTest, ConcurrentWavefrontWritesRespectThePlan)
{
    // A wide graph (many independent branches per level) executed
    // repeatedly over arena-backed buffers with maximum parallelism:
    // any planner aliasing bug or data race becomes a bit-identity
    // failure here (and a report under the ASan/TSan CI legs).
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{4, 64});
    std::vector<Value> branches;
    for (int i = 0; i < 12; ++i) {
        Value h = b.relu(b.addScalar(x, static_cast<double>(i)));
        h = b.gelu(h);
        h = b.add(h, x);
        branches.push_back(h);
    }
    Value acc = branches[0];
    for (size_t i = 1; i < branches.size(); ++i)
        acc = b.add(acc, branches[i]);
    b.output(b.softmax(acc));

    ThreadPool pool(8);
    std::vector<Tensor> inputs = makeRequestInputs(g, 7);
    Executor serial(g);
    std::vector<Tensor> want = serial.run(inputs);
    ParallelExecutor ex(g, pool, defaultBackend());
    ASSERT_TRUE(verifyNoAliasing(ex.memoryPlan()));
    for (int iter = 0; iter < kStressIters; ++iter)
        ASSERT_TRUE(outputsBitIdentical(ex.run(inputs), want))
            << "iteration " << iter;

    // The same plan hammered through concurrent batched requests.
    BatchDriver driver(g, pool, defaultBackend());
    std::vector<std::vector<Tensor>> reqs;
    for (int r = 0; r < 16; ++r)
        reqs.push_back(makeRequestInputs(g, 7));  // identical inputs
    for (int iter = 0; iter < 5; ++iter) {
        auto outs = driver.run(reqs);
        for (size_t r = 0; r < reqs.size(); ++r)
            ASSERT_TRUE(outputsBitIdentical(outs[r], want))
                << "iteration " << iter << " request " << r;
    }
}

}  // namespace
}  // namespace ngb
