/**
 * @file
 * Executable-memory-planning benchmark: planned vs measured arena
 * behaviour for every registry model.
 *
 * For each model the harness builds one EnginePlan and runs the same
 * requests through a BatchDriver (arena-backed) and through the serial
 * heap-allocating Executor, the oracle:
 *
 *  - planned:  MemoryPlan::arenaBytes (the lifetime-reuse peak) vs
 *              totalBytes (what a no-reuse allocator would hold) and
 *              the resulting reuseFactor;
 *  - measured: the arena extent actually bound at run time (plan
 *              utilization) and Storage heap allocations per request,
 *              split into a warm-up round and a steady-state round
 *              (outputs dropped between rounds, so arena blocks and
 *              scratch recycle the way a serving loop recycles them);
 *  - verified: arena outputs are bit-identical to the serial
 *              Executor's heap outputs.
 *
 * `--json FILE` writes BENCH_memory.json. `--check` enforces the CI
 * bars: zero steady-state allocations and full no-alias bit-identity
 * on every model, and reuseFactor >= 1.5 on the CNN-family models
 * whose long chains of disjoint-lifetime activations are exactly what
 * arena planning exists to reuse. `--smoke` runs a fast subset.
 */
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/executor.h"
#include "models/registry.h"
#include "runtime/batch_driver.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"

using namespace ngb;

namespace {

struct ModelMemory {
    std::string model;
    int64_t plannedArenaBytes = 0;
    int64_t plannedTotalBytes = 0;
    double reuseFactor = 1.0;
    int64_t measuredPeakBytes = 0;
    double utilization = 0;
    double heapAllocsPerReq = 0;    ///< serial Executor, steady state
    double arenaAllocsPerReq = 0;   ///< arena driver, steady state
    int64_t arenaWarmupAllocs = 0;  ///< blocks + scratch growth
    bool bitIdentical = false;
};

/** Registry keys of the conv-backbone models the --check bar targets. */
bool
isCnnFamily(const std::string &name)
{
    return name == "resnet50" || name == "mobilenet_v2" ||
           name == "vgg16" || name == "faster_rcnn" ||
           name == "mask_rcnn";
}

ModelMemory
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

    ModelMemory m;
    m.model = name;

    auto plan = buildEnginePlan(g);
    m.plannedArenaBytes = plan->memplan.arenaBytes;
    m.plannedTotalBytes = plan->memplan.totalBytes;
    m.reuseFactor = plan->memplan.reuseFactor();

    Executor heap(g, defaultBackend());
    BatchDriver arena(g, pool, plan, defaultBackend());

    // Reference outputs + warm-up (param materialization, backend
    // prepare) before any steady-state counting.
    auto run_heap = [&] {
        std::vector<std::vector<Tensor>> outs;
        for (const std::vector<Tensor> &req : reqs)
            outs.push_back(heap.run(req));
        return outs;
    };
    std::vector<std::vector<Tensor>> heap_outs = run_heap();

    uint64_t before = Storage::heapAllocCount();
    std::vector<std::vector<Tensor>> arena_outs = arena.run(reqs);
    m.arenaWarmupAllocs =
        static_cast<int64_t>(Storage::heapAllocCount() - before);

    m.bitIdentical = true;
    for (int r = 0; r < requests; ++r)
        m.bitIdentical =
            m.bitIdentical && bitIdentical(heap_outs[r], arena_outs[r]);
    m.measuredPeakBytes = arena.profile().memory.boundPeakBytes;
    m.utilization = m.plannedArenaBytes > 0
                        ? static_cast<double>(m.measuredPeakBytes) /
                              static_cast<double>(m.plannedArenaBytes)
                        : 0;
    // Drop the first arena round's outputs so its blocks recycle.
    arena_outs.clear();

    // Steady state: every plan/pool/scratch structure is warm; a
    // serving loop sits here for its whole life.
    before = Storage::heapAllocCount();
    for (int i = 0; i < rounds; ++i)
        arena.run(reqs);  // outputs dropped at the end of each round
    m.arenaAllocsPerReq =
        static_cast<double>(Storage::heapAllocCount() - before) /
        static_cast<double>(rounds * requests);

    heap_outs.clear();
    before = Storage::heapAllocCount();
    for (int i = 0; i < rounds; ++i)
        run_heap();
    m.heapAllocsPerReq =
        static_cast<double>(Storage::heapAllocCount() - before) /
        static_cast<double>(rounds * requests);
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
    const int rounds = smoke ? 2 : 3;

    ThreadPool pool(4);
    std::printf("executable memory planning: planned vs measured "
                "(backend %s, %d requests x %d steady rounds)%s\n",
                defaultBackend().name().c_str(), requests, rounds,
                smoke ? "  [smoke]" : "");
    bench::printRule(104);
    std::printf("%-14s %10s %10s %6s %8s %11s %11s %9s %5s\n", "model",
                "arena_KiB", "noreuse", "reuse", "util", "heap_all/rq",
                "arena_al/rq", "warmup", "bits");
    bench::printRule(104);

    std::vector<ModelMemory> results;
    bool ok = true;
    for (const std::string &name : names) {
        ModelMemory m = measureModel(name, pool, requests, rounds);
        results.push_back(m);
        std::printf("%-14s %10" PRId64 " %10" PRId64
                    " %5.2fx %7.1f%% %11.2f %11.2f %9" PRId64 " %5s\n",
                    m.model.c_str(), m.plannedArenaBytes / 1024,
                    m.plannedTotalBytes / 1024, m.reuseFactor,
                    100.0 * m.utilization, m.heapAllocsPerReq,
                    m.arenaAllocsPerReq, m.arenaWarmupAllocs,
                    m.bitIdentical ? "ok" : "DIFF");

        if (check) {
            if (!m.bitIdentical) {
                std::printf("CHECK FAILED: %s arena outputs differ from "
                            "the serial heap Executor\n",
                            m.model.c_str());
                ok = false;
            }
            if (m.arenaAllocsPerReq != 0.0) {
                std::printf("CHECK FAILED: %s steady-state arena "
                            "allocs/request = %.2f (want 0)\n",
                            m.model.c_str(), m.arenaAllocsPerReq);
                ok = false;
            }
            if (isCnnFamily(m.model) && m.reuseFactor < 1.5) {
                std::printf("CHECK FAILED: %s reuseFactor %.2f < 1.5\n",
                            m.model.c_str(), m.reuseFactor);
                ok = false;
            }
        }
    }
    bench::printRule(104);

    if (!json.empty()) {
        std::ofstream f(json);
        f << "{\n  \"backend\": \"" << defaultBackend().name()
          << "\",\n  \"requests\": " << requests
          << ",\n  \"steady_rounds\": " << rounds << ",\n  \"models\": [\n";
        for (size_t i = 0; i < results.size(); ++i) {
            const ModelMemory &m = results[i];
            f << "    {\"model\": \"" << m.model
              << "\", \"planned_arena_bytes\": " << m.plannedArenaBytes
              << ", \"planned_total_bytes\": " << m.plannedTotalBytes
              << ", \"reuse_factor\": " << m.reuseFactor
              << ", \"measured_peak_bytes\": " << m.measuredPeakBytes
              << ", \"utilization\": " << m.utilization
              << ", \"heap_allocs_per_request\": " << m.heapAllocsPerReq
              << ", \"arena_allocs_per_request\": " << m.arenaAllocsPerReq
              << ", \"arena_warmup_allocs\": " << m.arenaWarmupAllocs
              << ", \"bit_identical\": "
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
