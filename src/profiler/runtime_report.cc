#include "profiler/runtime_report.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace ngb {

namespace {

/** 1234567 -> "1.23M": engineering notation for counter magnitudes. */
std::string
engFmt(double v)
{
    static const char *suffix[] = {"", "k", "M", "G", "T", "P"};
    int mag = 0;
    while (v >= 1000.0 && mag < 5) {
        v /= 1000.0;
        ++mag;
    }
    std::ostringstream os;
    os << std::fixed << std::setprecision(v < 10 ? 2 : v < 100 ? 1 : 0)
       << v << suffix[mag];
    return os.str();
}

}  // namespace

void
printRuntimeReport(const RuntimeProfile &p, std::ostream &os)
{
    os << "runtime: backend=" << p.backend
       << (p.fused ? " (fused)" : "") << " threads=" << p.threads
       << " requests=" << p.requests
       << " intraop=" << p.intraop
       << "  levels=" << p.schedule.numLevels
       << " max_width=" << p.schedule.maxWidth << " avg_width="
       << std::fixed << std::setprecision(1) << p.schedule.avgWidth;
    if (int deep = p.deepLevelCount())
        os << "  deep_levels=" << deep << "/" << p.levels.size();
    os << "\n";
    os << "  wall " << std::setprecision(2) << p.wallUs * 1e-3
       << " ms  |  kernel time " << p.sumUs * 1e-3 << " ms  |  concurrency "
       << p.concurrency() << "x  |  utilization " << std::setprecision(1)
       << 100.0 * p.utilization() << "%  |  plan " << std::setprecision(2)
       << p.planUs * 1e-3 << " ms (amortized)\n";

    if (!p.threadBusyUs.empty()) {
        double busiest = *std::max_element(p.threadBusyUs.begin(),
                                           p.threadBusyUs.end());
        os << "  per-thread busy (steals=" << p.steals << "):\n";
        for (size_t t = 0; t < p.threadBusyUs.size(); ++t) {
            int bar = busiest > 0 ? static_cast<int>(
                                        32.0 * p.threadBusyUs[t] / busiest)
                                  : 0;
            os << "    t" << t << " " << std::setw(9)
               << std::setprecision(1) << p.threadBusyUs[t] << " us  |"
               << std::string(static_cast<size_t>(bar), '#') << "\n";
        }
    }

    if (!p.levels.empty()) {
        // The handful of levels that dominate wall time.
        std::vector<LevelTiming> by_wall = p.levels;
        std::sort(by_wall.begin(), by_wall.end(),
                  [](const LevelTiming &a, const LevelTiming &b) {
                      return a.wallUs > b.wallUs;
                  });
        size_t show = std::min<size_t>(by_wall.size(), 5);
        os << "  hottest levels:\n";
        for (size_t i = 0; i < show; ++i)
            os << "    level " << std::setw(4) << by_wall[i].level
               << "  nodes=" << std::setw(4) << by_wall[i].nodes
               << "  wall " << std::setprecision(1) << by_wall[i].wallUs
               << " us" << (by_wall[i].deep ? "  [deep]" : "") << "\n";
    }

    const MemoryStats &m = p.memory;
    os << "  memory: planned arena " << m.plannedArenaBytes / 1024
       << " KiB, no-reuse " << m.plannedTotalBytes / 1024
       << " KiB  |  measured peak " << m.boundPeakBytes / 1024
       << " KiB (" << std::setprecision(1) << 100.0 * m.utilization()
       << "% of plan)\n";
    os << "    heap allocs " << m.heapAllocs << " ("
       << m.heapAllocBytes / 1024 << " KiB), "
       << std::setprecision(2) << m.allocsPerRequest(p.requests)
       << "/request  |  outputs " << m.arenaTensors << " arena / "
       << m.heapTensors << " heap  |  blocks " << m.arenaBlocks
       << "  |  scratch hw " << m.scratchPeakBytes / 1024
       << " KiB (workers sum " << m.scratchWorkerSumBytes / 1024
       << " KiB)\n";

    os << "  measured split [" << p.backend << "]: GEMM "
       << std::setprecision(1)
       << (p.sumUs > 0 ? 100.0 * p.gemmUs() / p.sumUs : 0)
       << "%  non-GEMM " << p.nonGemmPct() << "%\n";
    for (const auto &[cat, us] : p.usByCategory)
        os << "    " << std::left << std::setw(14) << opCategoryName(cat)
           << std::right << std::setw(10) << std::setprecision(1) << us
           << " us  (" << std::setw(5)
           << (p.sumUs > 0 ? 100.0 * us / p.sumUs : 0) << "%)\n";

    if (p.quant.quantized) {
        const quant::QuantExecStats &q = p.quant;
        os << "  quant: " << q.int8Gemms << " int8 GEMMs, " << q.qdqOps
           << " Q/DQ ops  |  weights " << q.packedWeightBytes / 1024
           << " KiB int8 vs " << q.floatWeightBytes / 1024
           << " KiB f32 (" << std::setprecision(2)
           << q.weightCompression() << "x smaller)\n";
        os << "    kernel time: int8 GEMM " << std::setprecision(1)
           << q.int8GemmUs << " us  |  float GEMM " << q.floatGemmUs
           << " us  |  Q/DQ " << q.qdqUs << " us ("
           << (p.sumUs > 0 ? 100.0 * q.qdqUs / p.sumUs : 0)
           << "% of kernel time)\n";
    }

    if (p.perf.enabled) {
        const obs::PerfCounterStats &pf = p.perf;
        if (!pf.measured) {
            os << "  hw counters: unavailable (" << pf.status << ")  |  "
               << pf.total.scopes << " kernel scopes clocked\n";
        } else {
            os << "  hw counters (" << pf.hwCounters
               << "/4 grouped): cycles " << engFmt(pf.total.cycles)
               << "  instr " << engFmt(pf.total.instructions)
               << "  IPC " << std::setprecision(2) << pf.total.ipc()
               << "  LLC MPKI " << pf.total.missesPerKiloInstr()
               << "  |  " << pf.total.scopes << " kernel scopes";
            if (!pf.status.empty())
                os << "  (" << pf.status << ")";
            os << "\n";
            for (size_t c = 0; c < obs::kPerfCategories; ++c) {
                const auto &b = pf.byCategory[c];
                if (b.scopes == 0)
                    continue;
                os << "    " << std::left << std::setw(14)
                   << opCategoryName(static_cast<OpCategory>(c))
                   << std::right << " cycles " << std::setw(8)
                   << engFmt(b.cycles) << "  IPC " << std::setw(5)
                   << std::setprecision(2) << b.ipc() << "  MPKI "
                   << std::setw(6) << b.missesPerKiloInstr() << "  ("
                   << engFmt(static_cast<double>(b.scopes))
                   << " scopes)\n";
            }
        }
        os << "  roofline: " << engFmt(p.measuredFlopsPerSec())
           << "FLOP/s (model FLOPs / measured wall)";
        if (pf.measured)
            os << "  |  bw proxy " << engFmt(p.measuredBandwidthProxy())
               << "B/s (LLC-miss lines)  |  AI " << std::setprecision(1)
               << p.measuredArithmeticIntensity() << " flop/B";
        else
            os << "  |  bw proxy unavailable (no LLC-miss counter)";
        os << "  |  model " << engFmt(p.modelFlops) << "FLOP, "
           << engFmt(p.modelBytes) << "B per request\n";
    }
}

void
printRuntimeComparison(const RuntimeProfile &a, const RuntimeProfile &b,
                       const std::string &labelA,
                       const std::string &labelB, std::ostream &os)
{
    auto usOf = [](const RuntimeProfile &p, OpCategory c) {
        auto it = p.usByCategory.find(c);
        return it != p.usByCategory.end() ? it->second : 0.0;
    };
    // Union of categories, map-ordered.
    std::map<OpCategory, double> cats = a.usByCategory;
    for (const auto &[cat, us] : b.usByCategory)
        cats.emplace(cat, us);

    os << "measured comparison: " << labelA << " vs " << labelB << "\n";
    os << "  " << std::left << std::setw(14) << "category" << std::right
       << std::setw(14) << labelA << std::setw(14) << labelB
       << std::setw(10) << "speedup" << "\n";
    for (const auto &[cat, unused] : cats) {
        (void)unused;
        double ua = usOf(a, cat), ub = usOf(b, cat);
        os << "  " << std::left << std::setw(14) << opCategoryName(cat)
           << std::right << std::fixed << std::setprecision(1)
           << std::setw(11) << ua << " us" << std::setw(11) << ub
           << " us" << std::setw(9) << std::setprecision(2)
           << (ub > 0 ? ua / ub : 0.0) << "x\n";
    }
    os << "  " << std::left << std::setw(14) << "total" << std::right
       << std::fixed << std::setprecision(1) << std::setw(11) << a.sumUs
       << " us" << std::setw(11) << b.sumUs << " us" << std::setw(9)
       << std::setprecision(2) << (b.sumUs > 0 ? a.sumUs / b.sumUs : 0.0)
       << "x\n";
    os << "  GEMM/non-GEMM split: " << labelA << " "
       << std::setprecision(1)
       << (a.sumUs > 0 ? 100.0 * a.gemmUs() / a.sumUs : 0.0) << "%/"
       << a.nonGemmPct() << "%  ->  " << labelB << " "
       << (b.sumUs > 0 ? 100.0 * b.gemmUs() / b.sumUs : 0.0) << "%/"
       << b.nonGemmPct() << "%\n";
}

void
printBackendComparison(const RuntimeProfile &a, const RuntimeProfile &b,
                       std::ostream &os)
{
    printRuntimeComparison(a, b, a.backend, b.backend, os);
}

void
printMemoryPlan(const MemoryPlan &plan, std::ostream &os)
{
    os << "memory plan: " << plan.placements.size() << " tensors, arena "
       << plan.arenaBytes / 1024 << " KiB, no-reuse "
       << plan.totalBytes / 1024 << " KiB, reuse " << std::fixed
       << std::setprecision(2) << plan.reuseFactor() << "x\n";
}

void
writeLevelCsv(const RuntimeProfile &p, std::ostream &os)
{
    os << "level,nodes,wall_us,deep\n";
    for (const LevelTiming &lt : p.levels)
        os << lt.level << ',' << lt.nodes << ',' << lt.wallUs << ','
           << (lt.deep ? 1 : 0) << '\n';
}

}  // namespace ngb
