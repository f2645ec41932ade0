#ifndef NGB_DEPLOY_FUSION_H
#define NGB_DEPLOY_FUSION_H

#include <vector>

#include "platform/plan.h"

namespace ngb {

/**
 * What a deployment flow's fusion pass is allowed to do.
 */
struct FusionConfig {
    /**
     * Fold BatchNorm (and a following ReLU) into a preceding Conv2d,
     * the CONV+BN+RELU pattern the paper identifies as the reason
     * TensorRT all but removes DETR's normalization latency.
     */
    bool fuseConvBnRelu = false;

    /**
     * Fuse chains of point-wise operators (element-wise arithmetic,
     * activations, normalizations, softmax, Q/DQ) into one kernel.
     */
    bool fusePointwiseChains = false;

    /**
     * Allow zero-copy layout ops inside a chain (shuffle fusion);
     * both studied flows break chains at layout boundaries by default.
     */
    bool fuseThroughLayout = false;

    /**
     * Minimum number of ops in a point-wise chain before it is worth
     * compiling a fused kernel. TensorRT's documented pattern needs
     * three consecutive point-wise operators (Section IV-B). Values
     * below 1 are treated as 1 (a chain has at least its head).
     */
    int minChainLen = 2;

    /**
     * Let a point-wise chain start at a GEMM operator (Linear, MatMul,
     * BMM, Conv2d without a BN to fold), so activation / element-wise
     * epilogues fold into the GEMM kernel — the fusedWithGemm class of
     * Table V. Off by default so the modeled deployment flows keep the
     * paper's pattern set; the executable --fuse path enables it.
     */
    bool fuseGemmEpilogues = false;
};

/**
 * Statistics of one fusion pass, matching Table V's metrics.
 */
struct FusionStats {
    int64_t totalNonGemm = 0;  ///< non-GEMM nodes in the graph
    int64_t fusedNonGemm = 0;  ///< non-GEMM nodes placed in fused groups
    int64_t fusedWithGemm = 0; ///< non-GEMM nodes folded into GEMM kernels
    int64_t groupsEmitted = 0;

    /** Fraction of non-GEMM operators that were fused (Table V). */
    double fusionRate() const
    {
        return totalNonGemm > 0
                   ? static_cast<double>(fusedNonGemm) /
                         static_cast<double>(totalNonGemm)
                   : 0.0;
    }
};

/**
 * Pattern-based greedy fusion over a graph.
 *
 * Partitions every non-input node of @p g into kernel groups: fused
 * multi-node groups where the config's patterns match (single-consumer
 * chains only, so fusion never changes semantics) and singleton groups
 * elsewhere. Group costs (flops, boundary bytes, params) are
 * aggregated so that fusing removes the intermediate tensor traffic
 * and all but one kernel launch — the two effects Section IV-B
 * attributes TensorRT's speedups to.
 */
std::vector<KernelGroup> fuseGraph(const Graph &g, const FusionConfig &cfg,
                                   FusionStats *stats = nullptr);

/** Build a singleton kernel group for one node (no fusion). */
KernelGroup singletonGroup(const Graph &g, const Node &n);

/**
 * Apply a fusion config as a graph rewrite instead of a score: every
 * multi-node group fuseGraph() finds becomes ONE executable
 * OpKind::Fused node whose fusedBody carries the member operators
 * (original attrs/params, "seed_id" preserving parameter identity),
 * and every other node is copied through. The result is a valid,
 * topologically ordered graph the executors run end to end: the
 * reference backend interprets each chain member-by-member
 * (bit-identical to the unfused graph), the simd backend pre-merges
 * Conv+BN affines (tolerance, documented reassociation) and runs
 * activation epilogues inside its GEMM shards (bit-identical).
 *
 * @p stats receives the same FusionStats the scoring pass reports.
 */
Graph applyFusion(const Graph &g, const FusionConfig &cfg,
                  FusionStats *stats = nullptr);

/**
 * The FusionConfig behind the execution-level --fuse flag (and the
 * NGB_FUSE=1 CI leg): CONV+BN+RELU folding, point-wise chains, and
 * GEMM epilogues, at the default chain-length threshold.
 */
FusionConfig executableFusionConfig();

/** True when $NGB_FUSE is on (platform::parseEnvFlag) — the process
 *  default for "apply fusion before executing" (serve engines, CLI). */
bool fuseEnabledByEnv();

}  // namespace ngb

#endif  // NGB_DEPLOY_FUSION_H
