#ifndef NGB_PROFILER_RUNTIME_REPORT_H
#define NGB_PROFILER_RUNTIME_REPORT_H

#include <ostream>

#include "runtime/memory_planner.h"
#include "runtime/runtime_profile.h"

namespace ngb {

/**
 * Human-readable report over a *measured* parallel-runtime execution:
 * wall clock vs summed kernel time, per-thread busy bars, the widest
 * wavefront levels, and the measured GEMM / non-GEMM split — the
 * wall-clock counterpart of the cost-model printReport, closing the
 * loop on the paper's claim with timings from the actual host kernels.
 */
void printRuntimeReport(const RuntimeProfile &p, std::ostream &os);

/**
 * Side-by-side per-category attribution of two measured runs of the
 * SAME graph under two kernel backends (e.g. reference vs simd):
 * per-category kernel time, each backend's GEMM / non-GEMM share, and
 * the per-category speedup — the paper's Figure 6 experiment repeated
 * across backends, showing how the split shifts as kernels get
 * optimized.
 */
void printBackendComparison(const RuntimeProfile &a,
                            const RuntimeProfile &b, std::ostream &os);

/**
 * The same side-by-side attribution with caller-chosen column labels.
 * The --fuse runtime mode uses it to print unfused vs fused
 * measurements of one model under one backend (the Section IV-B
 * experiment measured instead of modeled).
 */
void printRuntimeComparison(const RuntimeProfile &a,
                            const RuntimeProfile &b,
                            const std::string &labelA,
                            const std::string &labelB, std::ostream &os);

/** One-line arena summary: planned peak vs the no-reuse footprint. */
void printMemoryPlan(const MemoryPlan &plan, std::ostream &os);

/** CSV row per wavefront level: level,nodes,wall_us. */
void writeLevelCsv(const RuntimeProfile &p, std::ostream &os);

}  // namespace ngb

#endif  // NGB_PROFILER_RUNTIME_REPORT_H
