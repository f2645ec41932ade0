/**
 * @file
 * Hardware-counter overhead benchmark: what does `--perf` cost? For
 * every registry model the harness executes the same requests through
 * the same BatchDriver under three configurations —
 *
 *  - off:  counter sampling disabled (the shipped default);
 *  - off2: disabled again — the null experiment. Its delta against
 *          `off` is the noise floor of this host, and the CI bar on
 *          the real overhead is only meaningful if this stays ~0;
 *  - perf: CounterScope armed on every kernel scope (one grouped
 *          read() per kernel on counter-capable hosts, one clock pair
 *          on hosts where perf_event_open is denied);
 *
 * interleaving the configurations round-robin so drift hits all three
 * equally, then comparing per-config median wall times. `--check`
 * enforces the CI bars on the aggregate (all-model) medians:
 *
 *  - counters-off null delta within +/-3% (measurement sanity),
 *  - counters-on overhead <= 5% of the off baseline,
 *  - outputs bit-identical across all three configurations on every
 *    model (sampling must never perturb a single bit).
 *
 * The bars hold on BOTH the hardware path and the clock-fallback
 * path, so CI stays green on PMU-less containers — degradation is
 * part of the contract, not an excuse.
 *
 * `--json FILE` writes BENCH_perf_counters.json. `--smoke` runs a
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
#include "obs/perf.h"
#include "runtime/batch_driver.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"

using namespace ngb;

namespace {

enum Config { kOff = 0, kOff2 = 1, kPerf = 2 };
constexpr int kConfigs = 3;

struct ModelOverhead {
    std::string model;
    double medianUs[kConfigs] = {0, 0, 0};
    uint64_t scopes = 0;  ///< kernel scopes counted by the perf rounds
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
            makeRequestInputs(g, 4242 + 101 * static_cast<uint64_t>(r)));

    ModelOverhead m;
    m.model = name;

    auto plan = buildEnginePlan(g);
    BatchDriver driver(g, pool, plan, defaultBackend());

    // Warm up with sampling off: param materialization, backend
    // prepare, arena growth, and (on capable hosts) the lazy
    // per-thread counter-group open must all happen outside the
    // timed rounds.
    obs::setPerfEnabled(false);
    std::vector<std::vector<Tensor>> ref = driver.run(reqs);
    obs::setPerfEnabled(true);
    driver.run(reqs);
    obs::setPerfEnabled(false);

    uint64_t scopes0 =
        obs::PerfAggregator::instance().totals().total.scopes;
    std::vector<double> us[kConfigs];
    std::vector<std::vector<Tensor>> last[kConfigs];
    for (int round = 0; round < rounds; ++round) {
        for (int c = 0; c < kConfigs; ++c) {
            obs::setPerfEnabled(c == kPerf);
            auto t0 = std::chrono::steady_clock::now();
            last[c] = driver.run(reqs);
            us[c].push_back(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        }
    }
    obs::setPerfEnabled(false);
    m.scopes =
        obs::PerfAggregator::instance().totals().total.scopes - scopes0;

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

    const obs::PerfCounterStats probe =
        obs::PerfAggregator::instance().totals();
    ThreadPool pool(4);
    std::printf("hw-counter overhead: off vs off (null) vs perf sampling "
                "(backend %s, %d requests x %d rounds, interleaved)%s\n",
                defaultBackend().name().c_str(), requests, rounds,
                smoke ? "  [smoke]" : "");
    std::printf("counter source: %s\n",
                probe.measured ? "perf_event_open (grouped hw counters)"
                               : probe.status.c_str());
    bench::printRule(96);
    std::printf("%-14s %10s %10s %10s %9s %9s %9s %5s\n", "model",
                "off_ms", "off2_ms", "perf_ms", "null_ovh", "perf_ovh",
                "scopes", "bits");
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
                    m.medianUs[kOff2] * 1e-3, m.medianUs[kPerf] * 1e-3,
                    ovh(kOff2), ovh(kPerf), m.scopes,
                    m.bitIdentical ? "ok" : "DIFF");
        bits_ok = bits_ok && m.bitIdentical;
    }
    bench::printRule(96);

    // Per-model ratios on host hardware are noisy; the CI bars gate
    // the aggregate, where per-model jitter averages out.
    double null_ovh = sum[kOff] > 0 ? sum[kOff2] / sum[kOff] - 1.0 : 0.0;
    double perf_ovh = sum[kOff] > 0 ? sum[kPerf] / sum[kOff] - 1.0 : 0.0;
    std::printf("aggregate: off %.1f ms, off2 %.1f ms (%+.2f%%), "
                "perf %.1f ms (%+.2f%%)\n",
                sum[kOff] * 1e-3, sum[kOff2] * 1e-3, 100.0 * null_ovh,
                sum[kPerf] * 1e-3, 100.0 * perf_ovh);

    bool ok = true;
    if (check) {
        if (!bits_ok) {
            std::printf("CHECK FAILED: outputs differ across counter "
                        "configurations\n");
            ok = false;
        }
        if (null_ovh > 0.03 || null_ovh < -0.03) {
            std::printf("CHECK FAILED: off-vs-off null delta %.2f%% "
                        "outside +/-3%% — host too noisy to certify "
                        "the perf bar\n",
                        100.0 * null_ovh);
            ok = false;
        }
        if (perf_ovh > 0.05) {
            std::printf("CHECK FAILED: aggregate counter-sampling "
                        "overhead %.2f%% > 5%%\n",
                        100.0 * perf_ovh);
            ok = false;
        }
    }

    if (!json.empty()) {
        std::ofstream f(json);
        f << "{\n  \"backend\": \"" << defaultBackend().name()
          << "\",\n  \"requests\": " << requests
          << ",\n  \"rounds\": " << rounds << ",\n  \"hw_counters\": "
          << probe.hwCounters << ",\n  \"measured\": "
          << (probe.measured ? "true" : "false")
          << ",\n  \"status\": \"" << probe.status
          << "\",\n  \"aggregate\": {\"off_us\": " << sum[kOff]
          << ", \"off2_us\": " << sum[kOff2]
          << ", \"perf_us\": " << sum[kPerf]
          << ", \"null_overhead\": " << null_ovh
          << ", \"perf_overhead\": " << perf_ovh
          << "},\n  \"models\": [\n";
        for (size_t i = 0; i < results.size(); ++i) {
            const ModelOverhead &m = results[i];
            f << "    {\"model\": \"" << m.model
              << "\", \"off_us\": " << m.medianUs[kOff]
              << ", \"off2_us\": " << m.medianUs[kOff2]
              << ", \"perf_us\": " << m.medianUs[kPerf]
              << ", \"scopes\": " << m.scopes << ", \"bit_identical\": "
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
