/**
 * @file
 * Executable fusion: applyFusion as a graph rewrite, proven correct by
 * a differential suite (every registry model x {reference, simd
 * portable, simd active level} backend x {serial, wavefront} runtime:
 * fused output bit-identical to unfused on order-preserving chains,
 * within tolerance where simd pre-merges Conv+BN affines) and a seeded
 * property/fuzz harness over random point-wise chain graphs.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend_sets.h"
#include "deploy/fusion.h"
#include "graph/builder.h"
#include "graph/executor.h"
#include "graph/validate.h"
#include "models/registry.h"
#include "ops/backend.h"
#include "ops/fused_kernels.h"
#include "runtime/batch_driver.h"
#include "runtime/parallel_executor.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"

namespace ngb {
namespace {

/** Count original operators represented by the rewritten graph. */
size_t
representedOps(const Graph &fused)
{
    size_t n = 0;
    for (const Node &node : fused.nodes())
        n += node.kind == OpKind::Fused ? node.fusedBody.size() : 1;
    return n;
}

/**
 * True when the rewrite produced a Conv2d-headed fused group — the one
 * pattern the simd backend executes with pre-merged affines /
 * the im2col GEMM conv, i.e. the documented tolerance (not
 * bit-identity) case.
 */
bool
hasConvHeadedFusion(const Graph &g)
{
    for (const Node &n : g.nodes())
        if (n.kind == OpKind::Fused && !n.fusedBody.empty() &&
            n.fusedBody[0].kind == OpKind::Conv2d)
            return true;
    return false;
}

void
expectValid(const Graph &g, const std::string &context)
{
    ValidationResult vr = validateGraph(g);
    EXPECT_TRUE(vr.ok()) << context << ":\n" << formatIssues(vr);
}

// ---- differential suite over the registry ---------------------------------

class FusionDifferentialTest
    : public ::testing::TestWithParam<models::ModelInfo>
{
};

TEST_P(FusionDifferentialTest, FusedMatchesUnfusedSerialAndWavefront)
{
    const models::ModelInfo &info = GetParam();
    Graph g = info.build(ModelConfig{1, 8, false, 0, 8});

    FusionStats st;
    Graph fused = applyFusion(g, executableFusionConfig(), &st);
    expectValid(fused, info.name);

    // The rewrite is a partition: every executable operator of the
    // original graph appears exactly once (as a member or a copy).
    EXPECT_EQ(representedOps(fused), g.size()) << info.name;
    EXPECT_LE(st.fusedWithGemm, st.fusedNonGemm) << info.name;
    EXPECT_LE(st.fusedNonGemm, st.totalNonGemm) << info.name;

    std::vector<Tensor> inputs = makeRequestInputs(g, 1234);
    ASSERT_EQ(makeRequestInputs(fused, 1234).size(), inputs.size());

    const bool conv_fused = hasConvHeadedFusion(fused);
    const std::vector<Backend> fast = fastBackends();
    for (const Backend *backend : withReference(fast)) {
        Executor unf(g, *backend);
        std::vector<Tensor> want = unf.run(inputs);

        Executor fex(fused, *backend);
        std::vector<Tensor> got = fex.run(inputs);

        if (backend != &referenceBackend() && conv_fused) {
            // Conv+BN merged affines reassociate the per-element
            // scale: tolerance, the documented contract.
            EXPECT_EQ(closeDifference(got, want), "")
                << info.name << " [" << backend->name() << "]";
        } else {
            // Order-preserving chains: interpretation / single-pass /
            // GEMM epilogues evaluate the same float expressions in
            // the same per-element order. Not one bit may change.
            EXPECT_EQ(bitDifference(got, want), "")
                << info.name << " [" << backend->name() << "]";
        }

        // Wavefront execution of the fused graph must be bit-identical
        // to its serial walk, whatever the backend.
        ThreadPool pool(4);
        ParallelExecutor pex(fused, pool, *backend);
        EXPECT_EQ(bitDifference(pex.run(inputs), got), "")
            << info.name << " [" << backend->name() << " wavefront]";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryModels, FusionDifferentialTest,
    ::testing::ValuesIn(models::modelRegistry()),
    [](const ::testing::TestParamInfo<models::ModelInfo> &i) {
        return i.param.name;
    });

// ---- targeted chain shapes ------------------------------------------------

TEST(FusionExecTest, BinaryMemberWithExternalOperandEitherPort)
{
    for (bool chain_second : {false, true}) {
        Graph g;
        GraphBuilder b(g);
        Value x = b.input(Shape{4, 16});
        Value y = b.input(Shape{4, 16});
        Value r = b.relu(x);
        Value s = chain_second ? b.add(y, r) : b.add(r, y);
        b.output(b.tanh(s));

        FusionConfig cfg;
        cfg.fusePointwiseChains = true;
        Graph fused = applyFusion(g, cfg);
        expectValid(fused, "binary member chain");

        // relu+add+tanh collapse into one fused node with two
        // external inputs.
        int fused_nodes = 0;
        for (const Node &n : fused.nodes())
            if (n.kind == OpKind::Fused) {
                ++fused_nodes;
                EXPECT_EQ(n.fusedBody.size(), 3u);
                EXPECT_EQ(n.inputs.size(), 2u);
            }
        EXPECT_EQ(fused_nodes, 1);

        std::vector<Tensor> inputs = makeRequestInputs(g, 77);
        const std::vector<Backend> fast = fastBackends();
        for (const Backend *backend : withReference(fast)) {
            Executor unf(g, *backend);
            Executor fex(fused, *backend);
            EXPECT_EQ(bitDifference(fex.run(inputs), unf.run(inputs)),
                      "")
                << backend->name()
                << (chain_second ? " (chain on port 1)" : "");
        }
    }
}

TEST(FusionExecTest, LinearEpilogueFusesIntoGemmAndStaysBitIdentical)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{5, 33});
    Value h = b.linear(x, 47, true, "fc");
    Value a = b.gelu(h);
    b.output(b.mulScalar(a, 0.5));

    FusionStats st;
    Graph fused = applyFusion(g, executableFusionConfig(), &st);
    expectValid(fused, "linear epilogue");
    EXPECT_EQ(st.fusedWithGemm, 2);  // gelu + mul folded into the GEMM

    ASSERT_EQ(fused.graphOutputs().size(), 1u);
    const Node &f = fused.node(fused.graphOutputs()[0].node);
    ASSERT_EQ(f.kind, OpKind::Fused);
    EXPECT_EQ(f.fusedBody[0].kind, OpKind::Linear);
    EXPECT_EQ(f.category(), OpCategory::Gemm);

    std::vector<Tensor> inputs = makeRequestInputs(g, 5);
    const std::vector<Backend> fast = fastBackends();
    for (const Backend *backend : withReference(fast)) {
        Executor unf(g, *backend);
        Executor fex(fused, *backend);
        EXPECT_EQ(bitDifference(fex.run(inputs), unf.run(inputs)), "")
            << backend->name();
    }
}

TEST(FusionExecTest, ConvBnReluMergedAffineWithinTolerance)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{1, 4, 10, 10});
    Value c = b.conv2d(x, 8, 3, 1, 1, 1, true, "conv");
    Value n = b.batchNorm2d(c);
    b.output(b.relu(n));

    FusionConfig cfg;
    cfg.fuseConvBnRelu = true;
    Graph fused = applyFusion(g, cfg);
    expectValid(fused, "conv+bn+relu");
    ASSERT_TRUE(hasConvHeadedFusion(fused));

    std::vector<Tensor> inputs = makeRequestInputs(g, 11);
    // Reference interprets the chain: bit-identical.
    Executor runf(g, referenceBackend());
    Executor rfex(fused, referenceBackend());
    EXPECT_EQ(bitDifference(rfex.run(inputs), runf.run(inputs)), "");
    // simd pre-merges the affine: tolerance, at every level.
    for (const Backend &fast : fastBackends()) {
        Executor sunf(g, fast);
        Executor sfex(fused, fast);
        EXPECT_EQ(closeDifference(sfex.run(inputs), sunf.run(inputs)), "");
    }
}

TEST(FusionExecTest, BatchDriverRunsFusedGraphsBitIdentically)
{
    Graph g = models::findModel("vit_b").build(ModelConfig{1, 8, false,
                                                           0, 16});
    Graph fused = applyFusion(g, executableFusionConfig());
    ThreadPool pool(2);
    std::vector<std::vector<Tensor>> reqs = {makeRequestInputs(g, 1),
                                             makeRequestInputs(g, 2)};
    BatchDriver driver(fused, pool, simdBackend());
    auto outs = driver.run(reqs);
    EXPECT_TRUE(driver.profile().fused);

    Executor serial(fused, simdBackend());
    for (size_t r = 0; r < reqs.size(); ++r)
        EXPECT_EQ(bitDifference(outs[r], serial.run(reqs[r])), "");
    Executor unfused(g, simdBackend());
    for (size_t r = 0; r < reqs.size(); ++r)
        EXPECT_EQ(bitDifference(outs[r], unfused.run(reqs[r])), "");
}

// ---- property / fuzz: random point-wise chain graphs ----------------------

/** xorshift64* so the fuzz graphs are identical on every platform. */
struct Rng {
    uint64_t s;
    explicit Rng(uint64_t seed) : s(seed * 2685821657736338717ull + 1) {}
    uint64_t next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 2685821657736338717ull;
    }
    int below(int n) { return static_cast<int>(next() % static_cast<uint64_t>(n)); }
};

/** Append one random op to the chain; layout ops interleave. */
Value
randomChainOp(GraphBuilder &b, Rng &rng, Value v, bool *is_layout)
{
    *is_layout = false;
    switch (rng.below(12)) {
      case 0:
        return b.relu(v);
      case 1:
        return b.gelu(v);
      case 2:
        return b.tanh(v);
      case 3:
        return b.sigmoid(v);
      case 4:
        return b.addScalar(v, 0.25);
      case 5:
        return b.mulScalar(v, 1.5);
      case 6:
        return b.layerNorm(v);
      case 7:
        return b.softmax(v, -1);
      case 8:  // Q/DQ pair: mixed dtypes (I8 intermediate) inside the
               // chain region.
        return b.dequantize(b.quantize(v));
      case 9:
        *is_layout = true;
        return b.transpose(v, 0, 1);  // zero-copy layout op
      case 10:
        *is_layout = true;
        return b.unsqueeze(v, 0);  // zero-copy, rank changes
      default:
        return b.neg(v);
    }
}

TEST(FusionPropertyTest, RandomChainsSurviveApplyFusion)
{
    constexpr int kSeeds = 40;
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        Rng rng(seed + 1);
        Graph g;
        GraphBuilder b(g);
        int64_t rows = 2 + rng.below(6);
        int64_t cols = 3 + rng.below(29);
        Value v = b.input(Shape{rows, cols});
        int len = 1 + rng.below(8);
        for (int i = 0; i < len; ++i) {
            bool is_layout = false;
            v = randomChainOp(b, rng, v, &is_layout);
        }
        b.output(v);

        for (bool through_layout : {false, true}) {
            FusionConfig cfg;
            cfg.fusePointwiseChains = true;
            cfg.fuseThroughLayout = through_layout;

            FusionStats st;
            Graph fused = applyFusion(g, cfg, &st);

            // Invariants: structural validity (includes topological
            // order), partition completeness, stats sanity.
            expectValid(fused, "seed " + std::to_string(seed));
            EXPECT_EQ(representedOps(fused), g.size())
                << "seed " << seed;
            EXPECT_LE(st.fusedNonGemm, st.totalNonGemm)
                << "seed " << seed;

            // Never fuse across layout ops unless fuseThroughLayout.
            if (!through_layout) {
                for (const Node &n : fused.nodes()) {
                    if (n.kind != OpKind::Fused)
                        continue;
                    for (OpKind k : n.fusedKinds)
                        EXPECT_NE(opCategoryOf(k), OpCategory::Memory)
                            << "seed " << seed
                            << ": layout op fused without "
                               "fuseThroughLayout";
                }
            }

            // Differential: rewritten graph computes the same bits.
            std::vector<Tensor> inputs = makeRequestInputs(g, seed);
            Executor unf(g, referenceBackend());
            Executor fex(fused, referenceBackend());
            EXPECT_EQ(bitDifference(fex.run(inputs), unf.run(inputs)),
                      "")
                << "seed " << seed;
            for (const Backend &fast : fastBackends()) {
                Executor sunf(g, fast);
                Executor sfex(fused, fast);
                EXPECT_EQ(
                    bitDifference(sfex.run(inputs), sunf.run(inputs)), "")
                    << "seed " << seed << " [simd]";
            }
        }
    }
}

// ---- FusionStats edge cases -----------------------------------------------

TEST(FusionStatsTest, ZeroNonGemmNodesNeverDividesByZero)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{2, 8});
    b.output(b.linear(x, 8, false, "only_gemm"));

    FusionStats st;
    fuseGraph(g, executableFusionConfig(), &st);
    EXPECT_EQ(st.totalNonGemm, 0);
    EXPECT_EQ(st.fusedNonGemm, 0);
    EXPECT_EQ(st.fusedWithGemm, 0);
    EXPECT_EQ(st.fusionRate(), 0.0);
    EXPECT_EQ(st.fusionRate(), st.fusionRate());  // not NaN
}

TEST(FusionStatsTest, MinChainLenAboveChainLengthsFusesNothing)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{32});
    Value v = b.relu(x);
    v = b.tanh(v);
    v = b.sigmoid(v);
    b.output(v);

    FusionConfig cfg;
    cfg.fusePointwiseChains = true;
    cfg.minChainLen = 99;
    FusionStats st;
    auto groups = fuseGraph(g, cfg, &st);
    EXPECT_EQ(groups.size(), 3u);
    EXPECT_EQ(st.fusedNonGemm, 0);
    EXPECT_EQ(st.fusedWithGemm, 0);
    EXPECT_EQ(st.fusionRate(), 0.0);
    for (const KernelGroup &kg : groups)
        EXPECT_EQ(kg.nodeIds.size(), 1u);
}

TEST(FusionStatsTest, NonPositiveMinChainLenBehavesLikeOne)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{32});
    b.output(b.relu(x));

    for (int min_len : {0, -5}) {
        FusionConfig cfg;
        cfg.fusePointwiseChains = true;
        cfg.minChainLen = min_len;
        FusionStats st;
        auto groups = fuseGraph(g, cfg, &st);
        ASSERT_EQ(groups.size(), 1u);
        EXPECT_EQ(groups[0].nodeIds.size(), 1u);
        EXPECT_FALSE(groups[0].fused);
        EXPECT_EQ(st.fusedNonGemm, 0) << "minChainLen " << min_len;
    }
}

TEST(FusionStatsTest, FusedWithGemmNeverOvercountsFusedNonGemm)
{
    // A GEMM-headed epilogue chain AND a detached point-wise chain:
    // only the epilogue members may count as fusedWithGemm.
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{4, 16});
    Value h = b.relu(b.linear(x, 16, true, "fc"));
    b.output(h);
    Value y = b.input(Shape{64});
    Value t = b.tanh(b.sigmoid(y));
    b.output(t);

    FusionStats st;
    fuseGraph(g, executableFusionConfig(), &st);
    EXPECT_EQ(st.fusedWithGemm, 1);  // the relu only
    EXPECT_EQ(st.fusedNonGemm, 3);   // relu + sigmoid + tanh
    EXPECT_LE(st.fusedWithGemm, st.fusedNonGemm);
    EXPECT_LE(st.fusedNonGemm, st.totalNonGemm);
}

// ---- descriptive errors ---------------------------------------------------

TEST(FusionErrorTest, EmptyFusedBodyThrowsDescriptively)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{8});
    Node f;
    f.kind = OpKind::Fused;
    f.name = "hollow";
    f.inputs = {x};
    f.outShapes = {Shape{8}};
    f.outDtypes = {DType::F32};
    int fid = g.addNode(std::move(f));
    g.markOutput(Value{fid, 0});

    // validate flags it...
    ValidationResult vr = validateGraph(g);
    EXPECT_FALSE(vr.ok());
    EXPECT_NE(formatIssues(vr).find("fusedBody"), std::string::npos);

    // ...and execution refuses it with a message naming the group.
    Executor ex(g, referenceBackend());
    try {
        ex.run(makeRequestInputs(g, 1));
        FAIL() << "expected empty fusedBody to throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("hollow"), std::string::npos) << msg;
        EXPECT_NE(msg.find("fusedBody"), std::string::npos) << msg;
    }
}

TEST(FusionErrorTest, UnfoldableMemberNamesOpAndChain)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{16});
    Value v = b.relu(x);
    b.output(b.tanh(v));
    FusionConfig cfg;
    cfg.fusePointwiseChains = true;
    Graph fused = applyFusion(g, cfg);

    // A backend that can dispatch Fused nodes but has no kernel for
    // any member op: folding must fail with a descriptive error
    // naming both the chain and the member, not UB.
    Backend lone("lone");
    lone.registerKernel(OpKind::Fused, [&lone](const KernelContext &c) {
        return evalFusedChain(c, lone);
    });
    Executor ex(fused, lone);
    try {
        ex.run(makeRequestInputs(fused, 3));
        FAIL() << "expected unfoldable member to throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("cannot fold"), std::string::npos) << msg;
        EXPECT_NE(msg.find("relu"), std::string::npos) << msg;
        EXPECT_NE(msg.find("lone"), std::string::npos) << msg;
    }
}

// ---- serve: engines compile with fusion, cache keys on it -----------------

TEST(FusionServeTest, EngineCacheKeysOnFuseAndServesIdentically)
{
    ThreadPool pool(2);
    serve::EngineConfig plain;
    plain.scale = 16;
    plain.fuse = false;
    serve::EngineConfig fusing = plain;
    fusing.fuse = true;

    serve::EngineCache cache_plain(pool, plain);
    serve::EngineCache cache_fused(pool, fusing);

    serve::Engine &e0 = cache_plain.get("vit_b");
    serve::Engine &e1 = cache_fused.get("vit_b");
    EXPECT_NE(&e0, &e1);

    bool has_fused_node = false;
    for (const Node &n : e1.graph().nodes())
        has_fused_node = has_fused_node || n.kind == OpKind::Fused;
    EXPECT_TRUE(has_fused_node);
    EXPECT_LT(e1.graph().size(), e0.graph().size());

    std::vector<std::vector<Tensor>> req = {
        makeRequestInputs(e0.graph(), 9)};
    auto a = e0.run(req);
    auto c = e1.run(req);
    // vit_b has no convs feeding BN, so fused serving is bit-identical
    // even under the default backend; at minimum it must be within
    // tolerance of the unfused engine.
    EXPECT_EQ(closeDifference(c[0], a[0]), "");

    // Each engine reproduces its own serial executor bit-for-bit.
    Executor s1(e1.graph(), e1.backend());
    EXPECT_EQ(bitDifference(c[0], s1.run(req[0])), "");
}

}  // namespace
}  // namespace ngb
