#ifndef NGB_RUNTIME_RUNTIME_PROFILE_H
#define NGB_RUNTIME_RUNTIME_PROFILE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/schedule.h"
#include "obs/perf.h"
#include "ops/op_types.h"
#include "quant/quant_mode.h"

namespace ngb {

/** Microseconds elapsed since @p t0 (shared by the runtime timers). */
inline double
elapsedUsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Wall-clock of one dispatched wavefront level. */
struct LevelTiming {
    int level = 0;
    size_t nodes = 0;
    double wallUs = 0;

    /** Hybrid scheduling: true when the level ran DEEP (nodes
     *  sequential, each GEMM sharded across the pool) rather than
     *  WIDE (one task per node, kernels serial). */
    bool deep = false;
};

/**
 * Measured memory behaviour of one runtime execution: what the plan
 * promised vs what the allocator actually did. heapAllocs counts
 * Storage heap allocations during the measured run (process-global
 * counters, so concurrent unrelated executors add noise — the
 * allocation-regression tests run one driver at a time).
 */
struct MemoryStats {
    int64_t plannedArenaBytes = 0;  ///< MemoryPlan::arenaBytes
    int64_t plannedTotalBytes = 0;  ///< no-reuse footprint
    int64_t boundPeakBytes = 0;     ///< measured max bound arena extent
    int64_t arenaTensors = 0;       ///< outputs served at planned offsets
    int64_t heapTensors = 0;        ///< outputs that fell back to heap
    int64_t heapAllocs = 0;         ///< Storage heap allocs during run
    int64_t heapAllocBytes = 0;     ///< bytes of those allocations
    int64_t arenaBlocks = 0;        ///< pool blocks backing the run

    /**
     * Kernel-temporary high water across all threads SINCE PROCESS
     * START (scratch arenas are monotone per thread, so this is a
     * process-lifetime gauge, not a per-run delta — an earlier run of
     * a bigger model raises it for every later profile).
     */
    int64_t scratchPeakBytes = 0;

    /**
     * Sum of per-worker scratch high waters (same process-lifetime
     * gauge) — the aggregate resident cost of intra-op sharding's
     * per-worker pack panels: every pool worker's arena peaks
     * independently, so the footprint is the sum, not the max.
     */
    int64_t scratchWorkerSumBytes = 0;

    /** Planned-vs-measured arena utilization (1.0 = fully exercised). */
    double utilization() const
    {
        return plannedArenaBytes > 0
                   ? static_cast<double>(boundPeakBytes) /
                         static_cast<double>(plannedArenaBytes)
                   : 0.0;
    }

    double allocsPerRequest(int requests) const
    {
        return requests > 0 ? static_cast<double>(heapAllocs) /
                                  static_cast<double>(requests)
                            : static_cast<double>(heapAllocs);
    }
};

/**
 * Measured (wall-clock) profile of one parallel-runtime execution —
 * the host-side counterpart of the cost-model ProfileReport. Unlike
 * the modeled numbers, these come from std::chrono around the actual
 * reference kernels, so they feed the profiler's runtime report and a
 * measured GEMM / non-GEMM split.
 */
struct RuntimeProfile {
    int threads = 1;
    int requests = 1;

    /** Kernel backend the measurement was taken under. */
    std::string backend = "reference";

    /** Intra-op mode the run executed under ("off" / "on" / "auto"). */
    std::string intraop = "off";

    /** True when the executed graph contained applyFusion's Fused
     *  groups (set automatically by the runtime drivers). */
    bool fused = false;

    double planUs = 0;     ///< schedule + memory plan + param warm-up
    double wallUs = 0;     ///< fork-join wall time of execution
    double sumUs = 0;      ///< total kernel time across all workers

    ScheduleStats schedule;
    std::vector<LevelTiming> levels;     ///< per-level wall (wavefront)
    std::vector<double> threadBusyUs;    ///< per-worker busy time
    int64_t steals = 0;                  ///< work-stealing migrations

    /** Planned-vs-measured memory behaviour of the run. */
    MemoryStats memory;

    /** Measured kernel time by operator category. */
    std::map<OpCategory, double> usByCategory;

    /**
     * Executable-quantization census and int8-vs-float kernel-time
     * attribution (quant.quantized false on float graphs; the drivers
     * fill the census at plan time and the timers during execution).
     */
    quant::QuantExecStats quant;

    /**
     * Hardware-counter aggregate of the run (perf.enabled false when
     * --perf was off; perf.measured false on hosts without
     * perf_event_open access, where only scope counts are real).
     */
    obs::PerfCounterStats perf;

    /**
     * Cost-model resource demand of ONE request through the graph
     * (sum of OpCost over nodes) — the deterministic numerator the
     * roofline divides by measured wall time.
     */
    double modelFlops = 0;
    double modelBytes = 0;

    /** Measured FLOP/s: modeled FLOPs over measured wall time. */
    double measuredFlopsPerSec() const
    {
        return wallUs > 0 ? modelFlops * requests / (wallUs * 1e-6) : 0;
    }

    /** Measured DRAM-bandwidth proxy: LLC-miss lines over wall time. */
    double measuredBandwidthProxy() const
    {
        return wallUs > 0
                   ? perf.total.bytesMovedEstimate() / (wallUs * 1e-6)
                   : 0;
    }

    /** FLOPs per byte actually moved (measured denominator). */
    double measuredArithmeticIntensity() const
    {
        double bytes = perf.total.bytesMovedEstimate();
        return bytes > 0 ? modelFlops * requests / bytes : 0;
    }

    /** Levels the hybrid scheduler ran deep in the last execution. */
    int deepLevelCount() const
    {
        int n = 0;
        for (const LevelTiming &lt : levels)
            n += lt.deep ? 1 : 0;
        return n;
    }

    double gemmUs() const
    {
        auto it = usByCategory.find(OpCategory::Gemm);
        return it != usByCategory.end() ? it->second : 0;
    }
    double nonGemmUs() const { return sumUs - gemmUs(); }
    double nonGemmPct() const
    {
        return sumUs > 0 ? 100.0 * nonGemmUs() / sumUs : 0;
    }

    /**
     * Average number of workers concurrently inside kernels
     * (worker-seconds of kernel time per wall-second). On dedicated
     * cores this equals the speedup over a serial replay; under core
     * oversubscription it reports achieved occupancy instead — kernel
     * time inflates with time-slicing, wall does not shrink.
     */
    double concurrency() const { return wallUs > 0 ? sumUs / wallUs : 1.0; }

    /** Fraction of the worker-seconds actually spent in kernels. */
    double utilization() const
    {
        return wallUs > 0 && threads > 0
                   ? sumUs / (wallUs * static_cast<double>(threads))
                   : 1.0;
    }
};

}  // namespace ngb

#endif  // NGB_RUNTIME_RUNTIME_PROFILE_H
