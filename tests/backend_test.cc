/**
 * @file
 * The kernel-backend API: registry completeness, fallback chains,
 * explicit kernel installation, backend-keyed engine caching, and the
 * cross-backend differential suite (every registry model, reference vs
 * the portable simd level, serial and parallel).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "graph/builder.h"
#include "graph/executor.h"
#include "models/registry.h"
#include "ops/backend.h"
#include "ops/kernels.h"
#include "ops/simd_backend.h"
#include "runtime/batch_driver.h"
#include "runtime/parallel_executor.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"

namespace ngb {
namespace {

namespace kn = kernels;

// ---- registry completeness guard -----------------------------------------

TEST(BackendRegistryTest, ReferenceCoversEveryOpIncludingFused)
{
    // Fused is REQUIRED since the executable-fusion rewrite: graphs
    // out of applyFusion dispatch Fused nodes like any other operator
    // (the reference backend interprets the folded chain; a chain
    // containing an op the interpreter cannot fold throws its own
    // descriptive error, covered in fusion_exec_test).
    const Backend &ref = referenceBackend();
    for (OpKind k : allOpKinds())
        EXPECT_TRUE(ref.handles(k))
            << "reference backend is missing a kernel for '"
            << opKindName(k) << "'";
    EXPECT_EQ(ref.numKernels(), allOpKinds().size());
}

TEST(BackendRegistryTest, SimdRegistersFusedKernel)
{
    EXPECT_TRUE(simdBackend().handles(OpKind::Fused));
}

TEST(BackendRegistryTest, UnknownOpLookupThrowsDescriptiveError)
{
    Backend bare("bare", nullptr);
    bare.registerKernel(OpKind::ReLU, [](const KernelContext &c) {
        return singleOutput(kn::relu(c.in(0)));
    });
    try {
        bare.kernelFor(OpKind::Fused);
        FAIL() << "expected unknown-op lookup to throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("fused"), std::string::npos) << msg;
        EXPECT_NE(msg.find("bare"), std::string::npos) << msg;
    }
}

TEST(BackendRegistryTest, UnknownBackendNameThrows)
{
    try {
        findBackend("bogus");
        FAIL() << "expected unknown-backend lookup to throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find("reference"), std::string::npos) << msg;
        EXPECT_NE(msg.find("simd"), std::string::npos) << msg;
    }
}

TEST(BackendRegistryTest, BuiltinsResolveByName)
{
    EXPECT_EQ(&findBackend("reference"), &referenceBackend());
    EXPECT_EQ(&findBackend("simd"), &simdBackend());
    EXPECT_EQ(simdBackend().fallback(), &referenceBackend());
    EXPECT_EQ(referenceBackend().fallback(), nullptr);
    // The simd backend is a sparse overlay, not a full copy.
    EXPECT_GT(simdBackend().numKernels(), 0u);
    EXPECT_LT(simdBackend().numKernels(),
              referenceBackend().numKernels());
    EXPECT_EQ(backendNames(),
              (std::vector<std::string>{"reference", "simd"}));
}

TEST(BackendRegistryTest, FallbackChainResolvesUnoverriddenOps)
{
    // Conv2d is not overridden by the simd backend: lookup must
    // resolve through the fallback chain instead of throwing, and
    // report reference as the kernel's owner.
    EXPECT_FALSE(simdBackend().handles(OpKind::Conv2d));
    const Backend *owner = nullptr;
    EXPECT_NO_THROW(simdBackend().kernelFor(OpKind::Conv2d, &owner));
    EXPECT_EQ(owner, &referenceBackend());
    simdBackend().kernelFor(OpKind::MatMul, &owner);
    EXPECT_EQ(owner, &simdBackend());
    // An empty backend with no fallback reports the full chain.
    Backend lone("lone");
    EXPECT_THROW(lone.kernelFor(OpKind::ReLU), std::runtime_error);
}

// ---- explicit installation + fallback through an executor ----------------

TEST(BackendOverrideTest, InstalledKernelOverridesAndRestFallsBack)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{2, 8});
    Value h = b.linear(x, 8, true, "fc");
    b.output(b.relu(h));

    // A backend that stubs ReLU to zeros but inherits everything else.
    Backend stub("stub", &referenceBackend());
    stub.registerKernel(OpKind::ReLU, [](const KernelContext &c) {
        std::vector<Tensor> out;
        out.push_back(Tensor::zeros(c.node.outShapes[0]));
        return out;
    });
    EXPECT_TRUE(stub.handles(OpKind::ReLU));
    EXPECT_FALSE(stub.handles(OpKind::Linear));

    std::vector<Tensor> inputs = makeRequestInputs(g, 7);
    Executor ex(g, stub);
    std::vector<Tensor> outs = ex.run(inputs);
    ASSERT_EQ(outs.size(), 1u);
    for (int64_t i = 0; i < outs[0].numel(); ++i)
        EXPECT_EQ(outs[0].flatAt(i), 0.0f);

    // The same graph under the reference backend is not all zeros
    // (the stub really did take effect, Linear really did run).
    Executor ref(g, referenceBackend());
    std::vector<Tensor> refOuts = ref.run(inputs);
    bool anyNonZero = false;
    for (int64_t i = 0; i < refOuts[0].numel(); ++i)
        anyNonZero = anyNonZero || refOuts[0].flatAt(i) != 0.0f;
    EXPECT_TRUE(anyNonZero);
}

// ---- cross-backend differential suite over the registry ------------------

class BackendDifferentialTest
    : public ::testing::TestWithParam<models::ModelInfo>
{
};

TEST_P(BackendDifferentialTest, PortableSimdMatchesReferenceSerialAndParallel)
{
    const models::ModelInfo &info = GetParam();
    Graph g = info.build(ModelConfig{1, 8, false, 0, 8});
    std::vector<Tensor> inputs = makeRequestInputs(g, 99);

    Executor ref(g, referenceBackend());
    std::vector<Tensor> want = ref.run(inputs);

    Backend portable = makeSimdBackend(platform::IsaLevel::Scalar);
    Executor ex(g, portable);
    std::vector<Tensor> got = ex.run(inputs);
    EXPECT_EQ(closeDifference(got, want), "") << info.name;

    // Same backend, parallel wavefront execution: bit-identical to
    // the serial walk — threading must never change a bit.
    ThreadPool pool(4);
    ParallelExecutor pex(g, pool, portable);
    EXPECT_EQ(bitDifference(pex.run(inputs), got), "") << info.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryModels, BackendDifferentialTest,
    ::testing::ValuesIn(models::modelRegistry()),
    [](const ::testing::TestParamInfo<models::ModelInfo> &i) {
        return i.param.name;
    });

TEST(BackendDifferentialTest2, BatchDriverHonorsBackend)
{
    Graph g = models::findModel("vit_b").build(ModelConfig{1, 8, false,
                                                           0, 16});
    ThreadPool pool(2);
    std::vector<std::vector<Tensor>> reqs = {makeRequestInputs(g, 1),
                                             makeRequestInputs(g, 2)};

    BatchDriver fast(g, pool, simdBackend());
    auto outs = fast.run(reqs);
    EXPECT_EQ(fast.profile().backend, "simd");

    Executor serialFast(g, simdBackend());
    for (size_t r = 0; r < reqs.size(); ++r)
        EXPECT_EQ(bitDifference(outs[r], serialFast.run(reqs[r])), "");

    Executor serialRef(g, referenceBackend());
    for (size_t r = 0; r < reqs.size(); ++r)
        EXPECT_EQ(closeDifference(outs[r], serialRef.run(reqs[r])), "");
}

// ---- engine cache keys on backend ----------------------------------------

TEST(EngineCacheBackendTest, TenantsPinningBackendsGetDistinctEngines)
{
    ThreadPool pool(2);
    serve::EngineConfig cfg;
    cfg.scale = 16;
    cfg.seqLen = 8;
    serve::EngineCache cache(pool, cfg);

    serve::Engine &ref1 = cache.get("vit_b", "reference");
    serve::Engine &ref2 = cache.get("vit_b", "reference");
    EXPECT_EQ(&ref1, &ref2);
    EXPECT_EQ(ref1.backend().name(), "reference");

    serve::Engine &fast = cache.get("vit_b", "simd");
    EXPECT_NE(&ref1, &fast);
    EXPECT_EQ(fast.backend().name(), "simd");

    serve::EngineCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 2);
    EXPECT_EQ(stats.engines, 2u);

    // The two engines really dispatch different kernel sets, and both
    // reproduce their own serial executor bit-for-bit.
    std::vector<std::vector<Tensor>> req = {
        makeRequestInputs(ref1.graph(), 5)};
    auto a = ref1.run(req);
    auto b = fast.run(req);
    Executor sref(ref1.graph(), referenceBackend());
    Executor sfast(fast.graph(), simdBackend());
    EXPECT_EQ(bitDifference(a[0], sref.run(req[0])), "");
    EXPECT_EQ(bitDifference(b[0], sfast.run(req[0])), "");
    EXPECT_EQ(closeDifference(b[0], a[0]), "");
}

TEST(EngineCacheBackendTest, ConfigBackendIsDefaultForTenants)
{
    ThreadPool pool(2);
    serve::EngineConfig cfg;
    cfg.scale = 16;
    cfg.backend = "simd";
    serve::EngineCache cache(pool, cfg);
    serve::Engine &e = cache.get("gpt2");
    EXPECT_EQ(e.backend().name(), "simd");
    // An explicit pin still wins over the config default.
    serve::Engine &r = cache.get("gpt2", "reference");
    EXPECT_EQ(r.backend().name(), "reference");
    EXPECT_NE(&e, &r);
}

}  // namespace
}  // namespace ngb
