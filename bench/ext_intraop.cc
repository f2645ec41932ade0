/**
 * @file
 * Intra-op scaling benchmark: does handing pool threads to the GEMM
 * macro-tile loops actually buy single-request latency? For every
 * registry model the harness runs ONE request (the latency-bound
 * regime where wavefront width cannot feed the pool) through the same
 * shared EnginePlan under five configurations —
 *
 *  - off@1 / off@8: intra-op disabled on a 1- and 8-worker pool (the
 *    pre-intra-op shape; off@8 vs off@1 prices the seam itself);
 *  - on@1 / on@2 / on@8: intra-op enabled, kernels shard across the
 *    pool via the whole-request ParallelRegion;
 *
 * interleaving configurations round-robin per round so drift hits all
 * five equally, then comparing per-config median wall times. Outputs
 * must stay bit-identical across every configuration — sharding
 * splits M/N iteration space, never the K reduction.
 *
 * `--check` enforces the CI bars:
 *  - >=2.0x median single-request speedup (off@8 / on@8) on at least
 *    3 GEMM-dominated models (>=50% measured GEMM kernel time) — a
 *    wall-clock bar that needs real parallel hardware, so it is
 *    enforced only when hardware_concurrency >= 8; on narrower
 *    machines it is SKIPPED — named in the final output line and
 *    recorded as "skipped" in the JSON aggregate, never a silent pass;
 *  - intra-op off costs nothing: aggregate off@8 <= 1.03x off@1;
 *  - bit-identical outputs everywhere.
 *
 * `--json FILE` writes BENCH_intraop.json. `--smoke` runs a fast
 * three-model subset with fewer rounds.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "models/registry.h"
#include "runtime/batch_driver.h"
#include "runtime/intraop.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"

using namespace ngb;

namespace {

enum Config { kOff1 = 0, kOff8 = 1, kOn1 = 2, kOn2 = 3, kOn8 = 4 };
constexpr int kConfigs = 5;
const char *kConfigName[kConfigs] = {"off@1", "off@8", "on@1", "on@2",
                                     "on@8"};

/** The backend whose GEMMs shard: intra-op lives in the simd tile
 *  loops, so a reference-backend default (no $NGB_BACKEND) would
 *  measure nothing — use simd. */
const Backend &
benchBackend()
{
    const Backend &d = defaultBackend();
    return d.name() == "reference" ? simdBackend() : d;
}

struct ModelScaling {
    std::string model;
    double medianUs[kConfigs] = {0, 0, 0, 0, 0};
    double gemmShare = 0;  ///< measured GEMM fraction of kernel time
    bool bitIdentical = false;

    double speedup8() const
    {
        return medianUs[kOn8] > 0 ? medianUs[kOff8] / medianUs[kOn8]
                                  : 0.0;
    }
    /** Fraction of perfect 8-way scaling the on@8 point reaches. */
    double efficiency8() const { return speedup8() / 8.0; }
    bool gemmDominated() const { return gemmShare >= 0.5; }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0 : v[v.size() / 2];
}

ModelScaling
measureModel(const std::string &name, int rounds)
{
    const auto &info = models::findModel(name);
    ModelConfig mc;
    mc.batch = 1;
    mc.seqLen = 8;
    mc.testScale = 8;
    Graph g = info.build(mc);
    std::vector<std::vector<Tensor>> reqs = {makeRequestInputs(g, 1234)};

    ModelScaling m;
    m.model = name;

    // One plan, five drivers: schedule/arena/params are shared so the
    // configurations differ only in pool width and intra-op mode.
    auto plan = buildEnginePlan(g);
    ThreadPool pool1(1), pool2(2), pool8(8);
    std::vector<BatchDriver> drivers;
    drivers.reserve(kConfigs);
    drivers.emplace_back(g, pool1, plan, benchBackend(), IntraOpMode::Off);
    drivers.emplace_back(g, pool8, plan, benchBackend(), IntraOpMode::Off);
    drivers.emplace_back(g, pool1, plan, benchBackend(), IntraOpMode::On);
    drivers.emplace_back(g, pool2, plan, benchBackend(), IntraOpMode::On);
    drivers.emplace_back(g, pool8, plan, benchBackend(), IntraOpMode::On);

    // Warm every driver once: param materialization, backend prepare,
    // per-thread tuning, arena/scratch growth — one-time costs that
    // must not land in any configuration's timings.
    std::vector<std::vector<Tensor>> ref = drivers[kOff1].run(reqs);
    std::vector<std::vector<Tensor>> last[kConfigs];
    for (int c = 1; c < kConfigs; ++c)
        last[c] = drivers[c].run(reqs);

    std::vector<double> us[kConfigs];
    for (int round = 0; round < rounds; ++round) {
        for (int c = 0; c < kConfigs; ++c) {
            auto t0 = std::chrono::steady_clock::now();
            last[c] = drivers[c].run(reqs);
            us[c].push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
        }
    }

    for (int c = 0; c < kConfigs; ++c)
        m.medianUs[c] = median(us[c]);
    m.bitIdentical = true;
    for (int c = 1; c < kConfigs; ++c)
        m.bitIdentical = m.bitIdentical && bitIdentical(ref[0], last[c][0]);

    const RuntimeProfile &p = drivers[kOn8].profile();
    m.gemmShare = p.sumUs > 0 ? p.gemmUs() / p.sumUs : 0.0;
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
    const int rounds = smoke ? 3 : 5;

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("intra-op scaling: single-request latency, off vs on "
                "(backend %s, %d rounds, interleaved, %u hw threads)%s\n",
                benchBackend().name().c_str(), rounds, hw,
                smoke ? "  [smoke]" : "");
    bench::printRule(100);
    std::printf("%-14s %9s %9s %9s %9s %9s %8s %6s %6s %5s\n", "model",
                "off@1_ms", "off@8_ms", "on@1_ms", "on@2_ms", "on@8_ms",
                "speedup", "eff", "gemm", "bits");
    bench::printRule(100);

    std::vector<ModelScaling> results;
    double off1_sum = 0, off8_sum = 0;
    int fast_gemm_models = 0;
    bool bits_ok = true;
    for (const std::string &name : names) {
        ModelScaling m = measureModel(name, rounds);
        results.push_back(m);
        off1_sum += m.medianUs[kOff1];
        off8_sum += m.medianUs[kOff8];
        if (m.gemmDominated() && m.speedup8() >= 2.0)
            ++fast_gemm_models;
        bits_ok = bits_ok && m.bitIdentical;
        std::printf("%-14s %9.2f %9.2f %9.2f %9.2f %9.2f %7.2fx %5.0f%% "
                    "%5.0f%% %5s\n",
                    m.model.c_str(), m.medianUs[kOff1] * 1e-3,
                    m.medianUs[kOff8] * 1e-3, m.medianUs[kOn1] * 1e-3,
                    m.medianUs[kOn2] * 1e-3, m.medianUs[kOn8] * 1e-3,
                    m.speedup8(), 100.0 * m.efficiency8(),
                    100.0 * m.gemmShare, m.bitIdentical ? "ok" : "DIFF");
    }
    bench::printRule(100);

    // Per-model off@8/off@1 ratios are noisy; the seam-cost bar gates
    // the aggregate, where jitter averages out.
    double off_overhead =
        off1_sum > 0 ? off8_sum / off1_sum - 1.0 : 0.0;
    std::printf("aggregate: off@1 %.1f ms, off@8 %.1f ms (%+.2f%% seam "
                "cost)  |  %d GEMM-dominated model(s) >=2x at 8 "
                "threads\n",
                off1_sum * 1e-3, off8_sum * 1e-3, 100.0 * off_overhead,
                fast_gemm_models);

    // The 8-thread bar cannot be measured on a narrower host: say so in
    // the JSON and in the last line, so a PASS never hides it.
    std::string skipped;
    if (hw < 8)
        skipped = "speedup bar (>=2x at 8 threads on >=3 GEMM-dominated "
                  "models) needs >=8 hardware threads, host has " +
                  std::to_string(hw);

    bool ok = true;
    if (check) {
        if (!bits_ok) {
            std::printf("CHECK FAILED: outputs differ across intra-op "
                        "configurations\n");
            ok = false;
        }
        if (hw < 8) {
            // A wall-clock 8-thread speedup bar is unmeasurable
            // without 8 hardware threads; the seam-cost and
            // bit-identity bars above still gate.
            std::printf("CHECK SKIPPED: speedup bar needs >=8 hardware "
                        "threads (have %u); measured %d GEMM-dominated "
                        "model(s) >=2x\n",
                        hw, fast_gemm_models);
        } else if (fast_gemm_models < 3) {
            std::printf("CHECK FAILED: only %d GEMM-dominated model(s) "
                        "reached 2x at 8 threads (need 3)\n",
                        fast_gemm_models);
            ok = false;
        }
        if (off_overhead > 0.03) {
            std::printf("CHECK FAILED: intra-op-off seam cost %.2f%% > "
                        "3%%\n",
                        100.0 * off_overhead);
            ok = false;
        }
    }

    if (!json.empty()) {
        std::ofstream f(json);
        f << "{\n  \"backend\": \"" << benchBackend().name()
          << "\",\n  \"rounds\": " << rounds
          << ",\n  \"aggregate\": {\"off1_us\": " << off1_sum
          << ", \"off8_us\": " << off8_sum
          << ", \"off_overhead\": " << off_overhead
          << ", \"fast_gemm_models\": " << fast_gemm_models;
        if (!skipped.empty())
            f << ", \"skipped\": \"" << skipped << "\"";
        f << "},\n  \"models\": [\n";
        for (size_t i = 0; i < results.size(); ++i) {
            const ModelScaling &m = results[i];
            f << "    {\"model\": \"" << m.model << "\"";
            for (int c = 0; c < kConfigs; ++c) {
                std::string key = kConfigName[c];
                std::replace(key.begin(), key.end(), '@', '_');
                f << ", \"" << key << "_us\": " << m.medianUs[c];
            }
            f << ", \"speedup8\": " << m.speedup8()
              << ", \"efficiency8\": " << m.efficiency8()
              << ", \"gemm_share\": " << m.gemmShare
              << ", \"bit_identical\": "
              << (m.bitIdentical ? "true" : "false") << "}"
              << (i + 1 < results.size() ? ",\n" : "\n");
        }
        f << "  ]\n}\n";
        std::printf("wrote %s\n", json.c_str());
    }

    if (check) {
        std::printf("check: %s\n", ok ? "PASS" : "FAIL");
        if (!skipped.empty())
            std::printf("check: SKIPPED %s\n", skipped.c_str());
    }
    return ok ? 0 : 1;
}
