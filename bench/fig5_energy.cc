/**
 * @file
 * Reproduces Figure 5: end-to-end inference GPU energy for every
 * Table II model at batch 1 and 8 on the data-center (CPU+GPU)
 * configuration.
 *
 * Beside the modeled joules, a measured-estimate column executes each
 * model (batch 1, scale 16) through the BatchDriver and prices the
 * run from what the host actually reports, best source first:
 *
 *  - "rapl":    delta of /sys/class/powercap intel-rapl package
 *               energy across the run (real measured joules);
 *  - "cycles":  hardware cycle count x a per-category energy weight
 *               (nJ/cycle) when perf counters are live but RAPL is
 *               not readable;
 *  - "wall*15W": wall clock x an assumed package draw when neither
 *               source exists — an order-of-magnitude label, printed
 *               as such, never silently passed off as measured.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "models/registry.h"
#include "obs/perf.h"
#include "platform/perf_events.h"
#include "runtime/batch_driver.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"

using namespace ngb;

namespace {

/**
 * Energy weight per cycle by category, nanojoules. GEMM kernels keep
 * the vector units saturated (high switching activity); memory and
 * reshape traffic mostly waits on the fabric. Coarse, but it turns a
 * counter stream into a comparable per-model figure.
 */
double
categoryNjPerCycle(OpCategory c)
{
    switch (c) {
    case OpCategory::Gemm:
        return 1.4;
    case OpCategory::Memory:
        return 0.5;
    case OpCategory::Embedding:
        return 0.6;
    default:
        return 0.9;  // element-wise / normalization / logit compute
    }
}

struct MeasuredEnergy {
    double joules = 0;
    double wallUs = 0;
    const char *source = "none";
};

MeasuredEnergy
measureModel(const std::string &name, ThreadPool &pool)
{
    const auto &info = models::findModel(name);
    ModelConfig mc;
    mc.batch = 1;
    mc.seqLen = 8;
    mc.testScale = 16;
    Graph g = info.build(mc);

    std::vector<std::vector<Tensor>> reqs;
    for (int r = 0; r < 2; ++r)
        reqs.push_back(
            makeRequestInputs(g, 5 + 17 * static_cast<uint64_t>(r)));

    BatchDriver driver(g, pool);
    driver.run(reqs);  // warm-up outside the energy window

    perf::RaplReading r0 = perf::readRaplJoules();
    driver.run(reqs);
    perf::RaplReading r1 = perf::readRaplJoules();
    const RuntimeProfile &p = driver.profile();

    MeasuredEnergy e;
    e.wallUs = p.wallUs;
    if (r0.ok && r1.ok && r1.joules >= r0.joules) {
        e.joules = r1.joules - r0.joules;
        e.source = "rapl";
    } else if (p.perf.measured) {
        double nj = 0;
        for (size_t c = 0; c < obs::kPerfCategories; ++c)
            nj += static_cast<double>(p.perf.byCategory[c].cycles) *
                  categoryNjPerCycle(static_cast<OpCategory>(c));
        e.joules = nj * 1e-9;
        e.source = "cycles";
    } else {
        e.joules = p.wallUs * 1e-6 * 15.0;  // assumed 15 W package
        e.source = "wall*15W";
    }
    return e;
}

}  // namespace

int
main()
{
    std::printf("Figure 5: GPU energy (J), Platform A, CPU+GPU\n");
    bench::printRule(92);
    std::printf("%-14s %-6s %12s %12s %12s %14s %9s\n", "model", "task",
                "b1 (J)", "b8 (J)", "latency b8", "measured (J)",
                "source");

    bool was_on = obs::perfEnabled();
    obs::setPerfEnabled(true);
    ThreadPool pool(4);
    for (const std::string &name : models::paperModelNames()) {
        const auto &info = models::findModel(name);
        BenchConfig c;
        c.model = name;
        c.batch = 1;
        ProfileReport r1 = Bench::run(c);
        c.batch = 8;
        ProfileReport r8 = Bench::run(c);
        MeasuredEnergy me = measureModel(name, pool);
        std::printf("%-14s %-6s %12.3f %12.3f %10.2fms %14.6f %9s\n",
                    name.c_str(), info.task.c_str(),
                    r1.energy.gpuJoules, r8.energy.gpuJoules,
                    r8.totalMs(), me.joules, me.source);
    }
    obs::setPerfEnabled(was_on);

    std::printf("\nPaper shape: energy grows with model size and batch;\n"
                "NLP giants (llama2, mixtral) and MaskFormer dominate.\n"
                "Measured column: scale-16 host execution, so magnitudes\n"
                "are not comparable to the modeled full-size joules —\n"
                "the per-model ORDERING is the reproducible signal.\n");
    return 0;
}
