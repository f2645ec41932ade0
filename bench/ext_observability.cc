/**
 * @file
 * Observability-overhead benchmark: what does watching the runtime
 * cost? For every registry model the harness executes the same
 * requests through the same BatchDriver under three configurations —
 *
 *  - off:     tracing and metrics disabled (the shipped default);
 *  - metrics: the metrics registry armed (relaxed-atomic counters and
 *             histograms on the serve/runtime hot paths);
 *  - trace:   full span tracing armed on top of metrics (a SpanEvent
 *             into the per-thread ring for every node evaluated, plus
 *             request/level/plan spans);
 *
 * interleaving the configurations round-robin so drift (frequency
 * scaling, cache warmth) hits all three equally, then comparing
 * per-config median wall times. The paper's instrument-the-runtime
 * story only holds if observation is effectively free when off and
 * cheap when on, so `--check` enforces the CI bars on the aggregate
 * (all-model) medians:
 *
 *  - metrics overhead <= 3% of the off baseline,
 *  - full tracing overhead <= 10%,
 *  - outputs bit-identical across all three configurations on every
 *    model (observation must never perturb a single bit).
 *
 * `--json FILE` writes BENCH_observability.json. `--smoke` runs a
 * fast three-model subset with fewer rounds.
 */
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/batch_driver.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"

using namespace ngb;

namespace {

enum Config { kOff = 0, kMetrics = 1, kTrace = 2 };
constexpr int kConfigs = 3;
const char *kConfigName[kConfigs] = {"off", "metrics", "trace"};

void
applyConfig(Config c)
{
    obs::setMetricsEnabled(c >= kMetrics);
    obs::setTraceEnabled(c >= kTrace);
}

struct ModelOverhead {
    std::string model;
    double medianUs[kConfigs] = {0, 0, 0};
    uint64_t spans = 0;  ///< spans recorded by the traced rounds
    bool bitIdentical = false;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0 : v[v.size() / 2];
}

ModelOverhead
measureModel(const std::string &name, ThreadPool &pool, int requests,
             int rounds)
{
    const auto &info = models::findModel(name);
    ModelConfig mc;
    mc.batch = 1;
    mc.seqLen = 8;
    mc.testScale = 8;
    Graph g = info.build(mc);

    std::vector<std::vector<Tensor>> reqs;
    for (int r = 0; r < requests; ++r)
        reqs.push_back(
            makeRequestInputs(g, 1234 + 7919 * static_cast<uint64_t>(r)));

    ModelOverhead m;
    m.model = name;

    auto plan = buildEnginePlan(g);
    BatchDriver driver(g, pool, plan, defaultBackend());

    // Warm up with everything off: param materialization, backend
    // prepare, arena/scratch growth — none of that is observation
    // cost, so it must not land in any config's timings.
    applyConfig(kOff);
    std::vector<std::vector<Tensor>> ref = driver.run(reqs);

    uint64_t spans0 = obs::Tracer::instance().totalRecorded();
    std::vector<double> us[kConfigs];
    std::vector<std::vector<Tensor>> last[kConfigs];
    for (int round = 0; round < rounds; ++round) {
        for (int c = 0; c < kConfigs; ++c) {
            applyConfig(static_cast<Config>(c));
            auto t0 = std::chrono::steady_clock::now();
            last[c] = driver.run(reqs);
            us[c].push_back(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        }
    }
    applyConfig(kOff);
    m.spans = obs::Tracer::instance().totalRecorded() - spans0;

    for (int c = 0; c < kConfigs; ++c)
        m.medianUs[c] = median(us[c]);
    m.bitIdentical = true;
    for (int r = 0; r < requests; ++r)
        for (int c = 0; c < kConfigs; ++c)
            m.bitIdentical =
                m.bitIdentical && bitIdentical(ref[r], last[c][r]);
    return m;
}

}  // namespace

int
main(int argc, char **argv)
{
    bool smoke = false, check = false;
    std::string json;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json = argv[++i];
    }

    std::vector<std::string> names;
    if (smoke) {
        names = {"vit_b", "gpt2", "resnet50"};
    } else {
        for (const auto &m : models::modelRegistry())
            names.push_back(m.name);
    }
    const int requests = smoke ? 2 : 4;
    const int rounds = smoke ? 3 : 5;

    ThreadPool pool(4);
    std::printf("observability overhead: off vs metrics vs full tracing "
                "(backend %s, %d requests x %d rounds, interleaved)%s\n",
                defaultBackend().name().c_str(), requests, rounds,
                smoke ? "  [smoke]" : "");
    bench::printRule(96);
    std::printf("%-14s %10s %10s %10s %9s %9s %9s %5s\n", "model",
                "off_ms", "metr_ms", "trace_ms", "metr_ovh", "trace_ovh",
                "spans", "bits");
    bench::printRule(96);

    std::vector<ModelOverhead> results;
    double sum[kConfigs] = {0, 0, 0};
    bool bits_ok = true;
    for (const std::string &name : names) {
        ModelOverhead m = measureModel(name, pool, requests, rounds);
        results.push_back(m);
        for (int c = 0; c < kConfigs; ++c)
            sum[c] += m.medianUs[c];
        auto ovh = [&](int c) {
            return m.medianUs[kOff] > 0
                       ? 100.0 * (m.medianUs[c] / m.medianUs[kOff] - 1.0)
                       : 0.0;
        };
        std::printf("%-14s %10.2f %10.2f %10.2f %8.1f%% %8.1f%% %9" PRIu64
                    " %5s\n",
                    m.model.c_str(), m.medianUs[kOff] * 1e-3,
                    m.medianUs[kMetrics] * 1e-3, m.medianUs[kTrace] * 1e-3,
                    ovh(kMetrics), ovh(kTrace), m.spans,
                    m.bitIdentical ? "ok" : "DIFF");
        bits_ok = bits_ok && m.bitIdentical;
    }
    bench::printRule(96);

    // Per-model ratios on host hardware are noisy; the CI bars gate
    // the aggregate — total observed time across the whole registry
    // sweep, where per-model jitter averages out.
    double metrics_ovh =
        sum[kOff] > 0 ? sum[kMetrics] / sum[kOff] - 1.0 : 0.0;
    double trace_ovh = sum[kOff] > 0 ? sum[kTrace] / sum[kOff] - 1.0 : 0.0;
    std::printf("aggregate: off %.1f ms, metrics %.1f ms (%+.2f%%), "
                "full tracing %.1f ms (%+.2f%%)\n",
                sum[kOff] * 1e-3, sum[kMetrics] * 1e-3,
                100.0 * metrics_ovh, sum[kTrace] * 1e-3,
                100.0 * trace_ovh);

    bool ok = true;
    if (check) {
        if (!bits_ok) {
            std::printf("CHECK FAILED: outputs differ across "
                        "observability configurations\n");
            ok = false;
        }
        if (metrics_ovh > 0.03) {
            std::printf("CHECK FAILED: aggregate metrics overhead "
                        "%.2f%% > 3%%\n",
                        100.0 * metrics_ovh);
            ok = false;
        }
        if (trace_ovh > 0.10) {
            std::printf("CHECK FAILED: aggregate tracing overhead "
                        "%.2f%% > 10%%\n",
                        100.0 * trace_ovh);
            ok = false;
        }
    }

    if (!json.empty()) {
        std::ofstream f(json);
        f << "{\n  \"backend\": \"" << defaultBackend().name()
          << "\",\n  \"requests\": " << requests
          << ",\n  \"rounds\": " << rounds
          << ",\n  \"aggregate\": {\"off_us\": " << sum[kOff]
          << ", \"metrics_us\": " << sum[kMetrics]
          << ", \"trace_us\": " << sum[kTrace]
          << ", \"metrics_overhead\": " << metrics_ovh
          << ", \"trace_overhead\": " << trace_ovh
          << "},\n  \"models\": [\n";
        for (size_t i = 0; i < results.size(); ++i) {
            const ModelOverhead &m = results[i];
            f << "    {\"model\": \"" << m.model
              << "\", \"off_us\": " << m.medianUs[kOff]
              << ", \"metrics_us\": " << m.medianUs[kMetrics]
              << ", \"trace_us\": " << m.medianUs[kTrace]
              << ", \"spans\": " << m.spans << ", \"bit_identical\": "
              << (m.bitIdentical ? "true" : "false") << "}"
              << (i + 1 < results.size() ? ",\n" : "\n");
        }
        f << "  ]\n}\n";
        std::printf("wrote %s\n", json.c_str());
    }

    if (check)
        std::printf("check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
