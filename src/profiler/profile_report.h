#ifndef NGB_PROFILER_PROFILE_REPORT_H
#define NGB_PROFILER_PROFILE_REPORT_H

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "deploy/fusion.h"
#include "obs/perf.h"
#include "platform/cost_model.h"
#include "platform/plan.h"
#include "quant/quant_mode.h"

namespace ngb {

/** Priced record of one executed kernel group. */
struct OpProfile {
    std::string label;
    OpCategory category = OpCategory::Misc;
    bool onGpu = false;
    bool fused = false;
    int nodeCount = 1;
    int kernelCount = 1;
    double us = 0;
    double flops = 0;
    double bytes = 0;
};

/**
 * The complete result of characterizing one (model, flow, platform,
 * batch) point: the paper's Performance / Workload / Non-GEMM reports
 * in one structure (Section III-C).
 */
struct ProfileReport {
    std::string model;
    std::string flow;
    std::string platformId;
    bool gpuEnabled = false;
    int64_t batch = 1;
    int64_t seqLen = 0;

    double totalUs = 0;
    double gemmUs = 0;
    double nonGemmUs = 0;
    std::map<OpCategory, double> usByCategory;
    std::map<OpCategory, int64_t> opsByCategory;

    /**
     * Cost-model latency of the dependency-critical path through the
     * plan (CostModel::criticalPathUs) — the floor a wavefront
     * scheduler of unbounded width could reach. 0 until priced.
     */
    double criticalPathUs = 0;

    /**
     * Summary of a *measured* execution through src/runtime, filled
     * by callers that actually ran the graph (threads == 0 means the
     * point was only modeled, not executed).
     */
    struct MeasuredRuntime {
        int threads = 0;
        int requests = 0;
        std::string backend = "reference";  ///< kernel backend measured
        std::string intraop = "off";        ///< intra-op mode measured
        int deepLevels = 0;  ///< levels the hybrid scheduler ran deep
        bool fused = false;  ///< graph was rewritten by applyFusion
        double wallUs = 0;           ///< fork-join wall clock
        double sumUs = 0;            ///< total kernel time
        double planUs = 0;           ///< schedule+arena+params, amortized
        size_t levels = 0;           ///< wavefront level count
        size_t maxWidth = 0;         ///< widest level
        int64_t arenaBytes = 0;      ///< planned peak activation arena
        int64_t totalTensorBytes = 0;  ///< no-reuse activation footprint

        // Measured memory behaviour (executable memory planning).
        int64_t measuredPeakBytes = 0;  ///< max bound arena extent
        int64_t heapAllocs = 0;         ///< Storage heap allocs in run
        int64_t scratchPeakBytes = 0;   ///< kernel-temporary high water
        int64_t scratchWorkerSumBytes = 0;  ///< sum of worker high waters

        // Executable-quantization census + int8-vs-float kernel-time
        // attribution (quant.quantized false on float graphs).
        quant::QuantExecStats quant;

        // Hardware-counter aggregate + roofline inputs (--perf runs;
        // perf.enabled false otherwise).
        obs::PerfCounterStats perf;
        double modelFlops = 0;  ///< cost-model FLOPs of one request
        double modelBytes = 0;  ///< cost-model bytes of one request
    };
    MeasuredRuntime runtime;

    EnergyBreakdown energy;
    GraphStats graphStats;
    FusionStats fusionStats;

    std::vector<OpProfile> ops;

    double totalMs() const { return totalUs * 1e-3; }
    double gemmPct() const
    {
        return totalUs > 0 ? 100.0 * gemmUs / totalUs : 0;
    }
    double nonGemmPct() const
    {
        return totalUs > 0 ? 100.0 * nonGemmUs / totalUs : 0;
    }
    double categoryPct(OpCategory c) const
    {
        auto it = usByCategory.find(c);
        return it != usByCategory.end() && totalUs > 0
                   ? 100.0 * it->second / totalUs
                   : 0;
    }

    /** The most time-consuming non-GEMM operator group (Table IV). */
    OpCategory dominantNonGemmCategory() const;

    /** The @p n slowest kernel groups, descending. */
    std::vector<OpProfile> topOps(size_t n) const;
};

/**
 * Aggregate a priced plan into a report. @p timings must come from
 * CostModel::priceAll on the same plan.
 */
ProfileReport aggregateProfile(const ExecutionPlan &plan,
                               const std::vector<GroupTiming> &timings,
                               const PlatformSpec &platform);

/** Write one row per kernel group as CSV (label,category,us,...). */
void writeOpCsv(const ProfileReport &r, std::ostream &os);

/** Write the category breakdown as CSV (category,us,percent). */
void writeCategoryCsv(const ProfileReport &r, std::ostream &os);

/** Render a human-readable breakdown table. */
void printReport(const ProfileReport &r, std::ostream &os);

/**
 * Serialize the whole report as JSON (metadata, totals, category
 * breakdown, fusion stats, energy, and per-op records) for downstream
 * tooling — the machine-readable counterpart of the artifact's CSVs.
 */
void writeJsonReport(const ProfileReport &r, std::ostream &os);

}  // namespace ngb

#endif  // NGB_PROFILER_PROFILE_REPORT_H
