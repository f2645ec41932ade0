#include "profiler/profile_report.h"

#include <algorithm>
#include <iomanip>

#include "obs/json_util.h"

namespace ngb {

OpCategory
ProfileReport::dominantNonGemmCategory() const
{
    OpCategory best = OpCategory::Misc;
    double best_us = -1;
    for (const auto &[cat, us] : usByCategory) {
        if (cat == OpCategory::Gemm)
            continue;
        if (us > best_us) {
            best_us = us;
            best = cat;
        }
    }
    return best;
}

std::vector<OpProfile>
ProfileReport::topOps(size_t n) const
{
    std::vector<OpProfile> sorted = ops;
    std::sort(sorted.begin(), sorted.end(),
              [](const OpProfile &a, const OpProfile &b) {
                  return a.us > b.us;
              });
    if (sorted.size() > n)
        sorted.resize(n);
    return sorted;
}

ProfileReport
aggregateProfile(const ExecutionPlan &plan,
                 const std::vector<GroupTiming> &timings,
                 const PlatformSpec &platform)
{
    ProfileReport r;
    r.flow = plan.flowName;
    r.platformId = platform.id;
    r.gpuEnabled = plan.gpuEnabled;
    if (plan.graph) {
        r.model = plan.graph->name();
        r.graphStats = plan.graph->stats();
    }

    for (size_t i = 0; i < plan.groups.size(); ++i) {
        const KernelGroup &g = plan.groups[i];
        const GroupTiming &t = timings[i];
        double us = t.totalUs();

        OpProfile op;
        op.label = g.label;
        op.category = g.category;
        op.onGpu = g.onGpu;
        op.fused = g.fused;
        op.nodeCount = static_cast<int>(g.nodeIds.size());
        op.kernelCount = g.kernelCount;
        op.us = us;
        op.flops = g.flops;
        op.bytes = g.bytesIn + g.bytesOut + g.bytesParam;
        r.ops.push_back(std::move(op));

        r.totalUs += us;
        r.usByCategory[g.category] += us;
        r.opsByCategory[g.category] += 1;
        if (g.category == OpCategory::Gemm)
            r.gemmUs += us;
        else
            r.nonGemmUs += us;
    }
    r.energy = energyOf(plan, timings, platform);
    return r;
}

void
writeOpCsv(const ProfileReport &r, std::ostream &os)
{
    os << "label,category,on_gpu,fused,nodes,kernels,us,flops,bytes\n";
    for (const OpProfile &op : r.ops) {
        os << op.label << ',' << opCategoryName(op.category) << ','
           << (op.onGpu ? 1 : 0) << ',' << (op.fused ? 1 : 0) << ','
           << op.nodeCount << ',' << op.kernelCount << ',' << op.us << ','
           << op.flops << ',' << op.bytes << '\n';
    }
}

void
writeCategoryCsv(const ProfileReport &r, std::ostream &os)
{
    os << "category,us,percent,ops\n";
    for (const auto &[cat, us] : r.usByCategory) {
        os << opCategoryName(cat) << ',' << us << ','
           << r.categoryPct(cat) << ',' << r.opsByCategory.at(cat) << '\n';
    }
}

void
printReport(const ProfileReport &r, std::ostream &os)
{
    os << "model=" << r.model << " flow=" << r.flow << " platform="
       << r.platformId << (r.gpuEnabled ? " (CPU+GPU)" : " (CPU only)")
       << " batch=" << r.batch << "\n";
    os << "  total latency: " << std::fixed << std::setprecision(2)
       << r.totalMs() << " ms  |  GEMM " << std::setprecision(1)
       << r.gemmPct() << "%  non-GEMM " << r.nonGemmPct() << "%\n";
    for (const auto &[cat, us] : r.usByCategory) {
        os << "    " << std::left << std::setw(14) << opCategoryName(cat)
           << std::right << std::setw(10) << std::setprecision(2) << us
           << " us  (" << std::setw(5) << std::setprecision(1)
           << r.categoryPct(cat) << "%)  ops=" << r.opsByCategory.at(cat)
           << "\n";
    }
    os << "  GPU energy: " << std::setprecision(3) << r.energy.gpuJoules
       << " J, CPU energy: " << r.energy.cpuJoules << " J\n";
    if (r.criticalPathUs > 0) {
        os << "  critical path: " << std::setprecision(2)
           << r.criticalPathUs * 1e-3 << " ms";
        // With asyncDispatch, totalUs is already an overlapped wall
        // clock and the serial-attribution bound is meaningless.
        if (r.totalUs >= r.criticalPathUs)
            os << "  (parallel speedup bound " << std::setprecision(2)
               << r.totalUs / r.criticalPathUs << "x)";
        os << "\n";
    }
    if (r.runtime.threads > 0) {
        const auto &rt = r.runtime;
        os << "  runtime (measured): backend=" << rt.backend
           << (rt.fused ? " (fused)" : "") << " threads=" << rt.threads
           << " intraop=" << rt.intraop
           << (rt.deepLevels > 0
                   ? " (deep levels " + std::to_string(rt.deepLevels) +
                         ")"
                   : "")
           << " requests=" << rt.requests << "  wall "
           << std::setprecision(2) << rt.wallUs * 1e-3 << " ms, kernels "
           << rt.sumUs * 1e-3 << " ms, concurrency "
           << (rt.wallUs > 0 ? rt.sumUs / rt.wallUs : 1.0) << "x\n";
        os << "    levels=" << rt.levels << " max_width=" << rt.maxWidth
           << "  arena " << rt.arenaBytes / 1024 << " KiB vs no-reuse "
           << rt.totalTensorBytes / 1024 << " KiB\n";
        os << "    memory (measured): peak bound "
           << rt.measuredPeakBytes / 1024
           << " KiB, " << rt.heapAllocs << " heap tensor allocs, scratch "
           << rt.scratchPeakBytes / 1024 << " KiB (workers sum "
           << rt.scratchWorkerSumBytes / 1024 << " KiB)\n";
        if (rt.quant.quantized)
            os << "    quant (measured): " << rt.quant.int8Gemms
               << " int8 GEMMs " << std::setprecision(1)
               << rt.quant.int8GemmUs << " us, Q/DQ " << rt.quant.qdqUs
               << " us, weights " << std::setprecision(2)
               << rt.quant.weightCompression() << "x smaller\n";
        if (rt.perf.enabled) {
            if (rt.perf.measured)
                os << "    hw counters: IPC " << std::setprecision(2)
                   << rt.perf.total.ipc() << ", LLC MPKI "
                   << rt.perf.total.missesPerKiloInstr() << " over "
                   << rt.perf.total.scopes << " kernel scopes\n";
            else
                os << "    hw counters: unavailable (" << rt.perf.status
                   << ")\n";
        }
    }
}

void
writeJsonReport(const ProfileReport &r, std::ostream &os)
{
    // The shared escaper handles control characters too, which the
    // old inline lambda silently passed through.
    auto esc = [](const std::string &in) { return obs::jsonEscape(in); };
    os << "{\n";
    os << "  \"model\": \"" << esc(r.model) << "\",\n";
    os << "  \"flow\": \"" << esc(r.flow) << "\",\n";
    os << "  \"platform\": \"" << esc(r.platformId) << "\",\n";
    os << "  \"gpu\": " << (r.gpuEnabled ? "true" : "false") << ",\n";
    os << "  \"batch\": " << r.batch << ",\n";
    os << "  \"seq_len\": " << r.seqLen << ",\n";
    os << "  \"total_us\": " << r.totalUs << ",\n";
    os << "  \"gemm_us\": " << r.gemmUs << ",\n";
    os << "  \"non_gemm_us\": " << r.nonGemmUs << ",\n";
    os << "  \"critical_path_us\": " << r.criticalPathUs << ",\n";
    if (r.runtime.threads > 0) {
        os << "  \"runtime\": {\"backend\": \""
           << esc(r.runtime.backend) << "\", \"fused\": "
           << (r.runtime.fused ? "true" : "false") << ", \"threads\": "
           << r.runtime.threads
           << ", \"intraop\": \"" << esc(r.runtime.intraop) << "\""
           << ", \"deep_levels\": " << r.runtime.deepLevels
           << ", \"requests\": " << r.runtime.requests
           << ", \"wall_us\": " << r.runtime.wallUs
           << ", \"kernel_us\": " << r.runtime.sumUs
           << ", \"plan_us\": " << r.runtime.planUs
           << ", \"levels\": " << r.runtime.levels
           << ", \"max_width\": " << r.runtime.maxWidth
           << ", \"arena_bytes\": " << r.runtime.arenaBytes
           << ", \"total_tensor_bytes\": " << r.runtime.totalTensorBytes
           << ", \"measured_peak_bytes\": " << r.runtime.measuredPeakBytes
           << ", \"heap_allocs\": " << r.runtime.heapAllocs
           << ", \"scratch_peak_bytes\": " << r.runtime.scratchPeakBytes
           << ", \"scratch_worker_sum_bytes\": "
           << r.runtime.scratchWorkerSumBytes
           << "},\n";
    }
    if (r.runtime.quant.quantized) {
        const quant::QuantExecStats &q = r.runtime.quant;
        os << "  \"quant\": {\"int8_gemms\": " << q.int8Gemms
           << ", \"qdq_ops\": " << q.qdqOps
           << ", \"packed_weight_bytes\": " << q.packedWeightBytes
           << ", \"float_weight_bytes\": " << q.floatWeightBytes
           << ", \"weight_compression\": " << q.weightCompression()
           << ", \"int8_gemm_us\": " << q.int8GemmUs
           << ", \"float_gemm_us\": " << q.floatGemmUs
           << ", \"qdq_us\": " << q.qdqUs << "},\n";
    }
    if (r.runtime.perf.enabled) {
        const obs::PerfCounterStats &pf = r.runtime.perf;
        double wall_s = r.runtime.wallUs * 1e-6;
        double flops_per_s =
            wall_s > 0
                ? r.runtime.modelFlops * r.runtime.requests / wall_s
                : 0;
        double bw_proxy =
            wall_s > 0 ? pf.total.bytesMovedEstimate() / wall_s : 0;
        os << "  \"perf\": {\"measured\": "
           << (pf.measured ? "true" : "false") << ", \"hw_counters\": "
           << pf.hwCounters << ", \"status\": \"" << esc(pf.status)
           << "\", \"cycles\": " << pf.total.cycles
           << ", \"instructions\": " << pf.total.instructions
           << ", \"llc_misses\": " << pf.total.cacheMisses
           << ", \"branch_misses\": " << pf.total.branchMisses
           << ", \"kernel_scopes\": " << pf.total.scopes
           << ", \"ipc\": " << pf.total.ipc()
           << ", \"llc_mpki\": " << pf.total.missesPerKiloInstr()
           << ", \"model_flops\": " << r.runtime.modelFlops
           << ", \"model_bytes\": " << r.runtime.modelBytes
           << ", \"flops_per_sec\": " << flops_per_s
           << ", \"bandwidth_proxy_bps\": " << bw_proxy
           << ", \"categories\": {";
        bool pfirst = true;
        for (size_t c = 0; c < obs::kPerfCategories; ++c) {
            const auto &b = pf.byCategory[c];
            if (b.scopes == 0)
                continue;
            if (!pfirst)
                os << ", ";
            pfirst = false;
            os << "\"" << opCategoryName(static_cast<OpCategory>(c))
               << "\": {\"cycles\": " << b.cycles << ", \"instructions\": "
               << b.instructions << ", \"llc_misses\": " << b.cacheMisses
               << ", \"branch_misses\": " << b.branchMisses
               << ", \"scopes\": " << b.scopes << ", \"ipc\": " << b.ipc()
               << ", \"llc_mpki\": " << b.missesPerKiloInstr() << "}";
        }
        os << "}},\n";
    }
    os << "  \"energy_gpu_j\": " << r.energy.gpuJoules << ",\n";
    os << "  \"energy_cpu_j\": " << r.energy.cpuJoules << ",\n";
    os << "  \"fusion\": {\"total_non_gemm\": "
       << r.fusionStats.totalNonGemm << ", \"fused_non_gemm\": "
       << r.fusionStats.fusedNonGemm << ", \"fused_with_gemm\": "
       << r.fusionStats.fusedWithGemm << "},\n";
    os << "  \"categories\": {";
    bool first = true;
    for (const auto &[cat, us] : r.usByCategory) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << opCategoryName(cat) << "\": " << us;
    }
    os << "},\n";
    os << "  \"ops\": [\n";
    for (size_t i = 0; i < r.ops.size(); ++i) {
        const OpProfile &op = r.ops[i];
        os << "    {\"label\": \"" << esc(op.label)
           << "\", \"category\": \"" << opCategoryName(op.category)
           << "\", \"us\": " << op.us << ", \"kernels\": "
           << op.kernelCount << ", \"fused\": "
           << (op.fused ? "true" : "false") << "}";
        os << (i + 1 < r.ops.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

}  // namespace ngb
