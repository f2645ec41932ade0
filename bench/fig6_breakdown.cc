/**
 * @file
 * Reproduces Figure 6: operator-granularity latency breakdowns of all
 * 17 models on both platforms, with and without GPU acceleration, at
 * batch 1 and 8. Also emits the per-row data as CSV on request
 * (pass --csv).
 *
 * After the modeled sweep (non-CSV mode), a measured companion table
 * executes every model through the BatchDriver with hardware-counter
 * sampling armed and prints the MEASURED GEMM/non-GEMM split next to
 * the modeled one, plus per-model cycles, IPC, and LLC MPKI. On hosts
 * where perf_event_open is unavailable the counter columns degrade to
 * "n/a" and the split column stays (it only needs the clock).
 */
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench_util.h"
#include "models/registry.h"
#include "obs/perf.h"
#include "runtime/batch_driver.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"

using namespace ngb;

namespace {

/** Modeled-vs-measured split for one model, counters attached. */
void
measuredRow(const std::string &name, ThreadPool &pool,
            double modeled_gemm_pct)
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
            makeRequestInputs(g, 99 + 31 * static_cast<uint64_t>(r)));

    BatchDriver driver(g, pool);
    driver.run(reqs);  // warm-up: params, prepare, arena growth
    driver.run(reqs);
    const RuntimeProfile &p = driver.profile();

    double measured_gemm =
        p.sumUs > 0 ? 100.0 * p.gemmUs() / p.sumUs : 0.0;
    std::printf("%-14s %9.1f%% %9.1f%%", name.c_str(), modeled_gemm_pct,
                measured_gemm);
    if (p.perf.measured) {
        std::printf(" %12" PRIu64 " %6.2f %8.2f\n", p.perf.total.cycles,
                    p.perf.total.ipc(),
                    p.perf.total.missesPerKiloInstr());
    } else {
        std::printf(" %12s %6s %8s\n", "n/a", "n/a", "n/a");
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    bool csv = argc > 1 && std::strcmp(argv[1], "--csv") == 0;

    if (csv) {
        std::printf("platform,device,model,batch,total_ms");
        for (OpCategory c : bench::figureCategories())
            std::printf(",%s", opCategoryName(c).c_str());
        std::printf("\n");
    }

    double cpu_share_sum = 0, gpu_share_sum = 0;
    int cpu_n = 0, gpu_n = 0;
    std::map<std::string, double> modeled_gemm_pct;  // platform A, CPU, b1

    for (const char *platform : {"A", "B"}) {
        for (bool gpu : {false, true}) {
            if (!csv) {
                std::printf("\nFigure 6: Platform %s, %s\n", platform,
                            gpu ? "CPU+GPU" : "CPU only");
                bench::printRule(100);
                bench::printCategoryHeader("model/batch");
            }
            for (const std::string &name : models::paperModelNames()) {
                for (int64_t batch : {1, 8}) {
                    BenchConfig c;
                    c.model = name;
                    c.batch = batch;
                    c.platform = platform;
                    c.gpu = gpu;
                    ProfileReport r = Bench::run(c);
                    std::string label =
                        name + " b" + std::to_string(batch);
                    if (csv) {
                        std::printf("%s,%s,%s,%ld,%.3f", platform,
                                    gpu ? "cpu+gpu" : "cpu", name.c_str(),
                                    static_cast<long>(batch), r.totalMs());
                        for (OpCategory cat : bench::figureCategories())
                            std::printf(",%.2f", r.categoryPct(cat));
                        std::printf("\n");
                    } else {
                        bench::printCategoryRow(label, r);
                    }
                    if (std::strcmp(platform, "A") == 0 && !gpu &&
                        batch == 1)
                        modeled_gemm_pct[name] = r.gemmPct();
                    if (gpu) {
                        gpu_share_sum += r.nonGemmPct();
                        ++gpu_n;
                    } else {
                        cpu_share_sum += r.nonGemmPct();
                        ++cpu_n;
                    }
                }
            }
        }
    }

    if (!csv) {
        bench::printRule(100);
        std::printf("Average non-GEMM share: CPU %.1f%%  CPU+GPU %.1f%%\n",
                    cpu_share_sum / cpu_n, gpu_share_sum / gpu_n);
        std::printf("Paper reference (Sec. IV-A): CPU 17.2%% -> CPU+GPU "
                    "42.3%% on average.\n");

        // Measured companion: the same models actually executed, with
        // the counter subsystem attributing cycles to kernel scopes.
        bool was_on = obs::perfEnabled();
        obs::setPerfEnabled(true);
        const obs::PerfCounterStats probe =
            obs::PerfAggregator::instance().totals();
        std::printf("\nMeasured split + hw counters (BatchDriver, "
                    "scale 16, batch 1, backend %s)\n",
                    defaultBackend().name().c_str());
        if (!probe.measured)
            std::printf("counters unavailable on this host (%s); "
                        "split columns still measured by clock\n",
                        probe.status.c_str());
        bench::printRule(64);
        std::printf("%-14s %10s %10s %12s %6s %8s\n", "model",
                    "model_gemm", "meas_gemm", "cycles", "IPC", "MPKI");
        ThreadPool pool(4);
        for (const std::string &name : models::paperModelNames())
            measuredRow(name, pool, modeled_gemm_pct[name]);
        bench::printRule(64);
        obs::setPerfEnabled(was_on);
    }
    return 0;
}
