/**
 * @file
 * The NonGEMM Bench command-line driver — the C++ counterpart of the
 * original artifact's run.py. Profiles any registry model under any
 * deployment flow and platform, and writes CSV / SVG / Chrome-trace
 * outputs.
 *
 *   ngb --list
 *   ngb --model swin_b --flow tensorrt --platform A --batch 8
 *   ngb --model llama3 --quantize --seq 2048 --svg out.svg --trace t.json
 */
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "core/bench.h"
#include "graph/dot_export.h"
#include "graph/validate.h"
#include "deploy/flow.h"
#include "deploy/fusion.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "ops/backend.h"
#include "platform/cpu_features.h"
#include "profiler/nongemm_report.h"
#include "profiler/runtime_report.h"
#include "profiler/serve_report.h"
#include "profiler/svg_chart.h"
#include "profiler/workload_report.h"
#include "profiler/trace_export.h"
#include "quant/quant_mode.h"
#include "quant/quantize_pass.h"
#include "runtime/batch_driver.h"
#include "runtime/parallel_executor.h"
#include "runtime/request_util.h"
#include "serve/serve_driver.h"

using namespace ngb;

namespace {

/** Options of the concrete-execution (--runtime) mode. */
struct RuntimeCli {
    bool enabled = false;
    bool parallel = false;   ///< serial reference vs parallel runtime
    int threads = 0;         ///< 0 = hardware concurrency
    int64_t scale = 8;       ///< testScale: full paper-scale models are
                             ///< not host-executable in reasonable time
    bool verify = false;     ///< cross-check parallel against serial
    std::string backend;     ///< kernel backend; "" = process default,
                             ///< "both" = reference + simd sweep
    bool fuse = false;       ///< applyFusion before executing; in
                             ///< parallel mode the unfused graph is
                             ///< measured too and printed side by side
    std::string quant;       ///< quant mode; "" = $NGB_QUANT default
    std::string intraop;     ///< "on"/"off"/"auto"; "" = $NGB_INTRAOP

    /** Resolved intra-op mode: explicit flag beats $NGB_INTRAOP. */
    IntraOpMode intraOpMode() const
    {
        return intraop.empty() ? intraOpModeFromEnv()
                               : parseIntraOpMode(intraop);
    }

    /** Resolved quantization mode: explicit flag beats $NGB_QUANT. */
    quant::QuantExecMode quantMode() const
    {
        return quant.empty() ? quant::quantModeFromEnv()
                             : quant::parseQuantMode(quant);
    }
};

/** Options of the serving (--serve) mode. */
struct ServeCliOpts {
    bool enabled = false;
    std::string mix;          ///< "vit_b:4,gpt2:1"; empty = --model
    double rps = 100;
    double durationS = 2;
    int clients = 0;          ///< > 0: closed loop instead of Poisson
    int maxBatch = 8;
    int64_t batchTimeoutUs = 2000;
    size_t queueDepth = 256;
    std::string admission = "block";
    uint64_t seed = 42;
};

/** Observability outputs of the executing modes (--runtime/--serve). */
struct ObsCliOpts {
    std::string trace;    ///< measured Chrome/Perfetto trace JSON
    std::string metrics;  ///< metrics registry snapshot, JSON
    std::string prom;     ///< metrics registry snapshot, Prometheus text
    bool perf = false;    ///< sample hw counters around kernel scopes

    bool any() const
    {
        return !trace.empty() || !metrics.empty() || !prom.empty() ||
               perf;
    }
};

/**
 * Export whatever the observability subsystem recorded: the measured
 * span trace and/or metrics snapshots. Called after an executing mode
 * finishes (all workers quiescent, so ring reads are race-free).
 */
void
writeObsArtifacts(const ObsCliOpts &obsOut)
{
    if (!obsOut.trace.empty()) {
        std::ofstream f(obsOut.trace);
        obs::Tracer::instance().writeChromeTrace(f);
        std::cout << "wrote " << obsOut.trace << " ("
                  << obs::Tracer::instance().totalRecorded() << " spans";
        if (uint64_t d = obs::Tracer::instance().totalDropped())
            std::cout << ", " << d << " dropped";
        std::cout << ")\n";
    }
    if (!obsOut.metrics.empty()) {
        std::ofstream f(obsOut.metrics);
        obs::MetricsRegistry::instance().writeJson(f);
        std::cout << "wrote " << obsOut.metrics << "\n";
    }
    if (!obsOut.prom.empty()) {
        std::ofstream f(obsOut.prom);
        obs::MetricsRegistry::instance().writePrometheus(f);
        std::cout << "wrote " << obsOut.prom << "\n";
    }
}

/** Deterministic per-request inputs (request r perturbs the seed). */
std::vector<Tensor>
requestInputs(const Graph &g, size_t r)
{
    return makeRequestInputs(g, 1234 + 7919 * static_cast<uint64_t>(r));
}

/**
 * Execute one model concretely through the runtime: N independent
 * requests, serial reference or parallel wavefront/batch backend.
 * Returns false if --verify found a mismatch. When the parallel
 * backend ran, @p outProfile / @p outPlan receive its measurements.
 */
bool
runRuntimeModel(const std::string &name, const BenchConfig &cfg,
                const RuntimeCli &rt, const Backend &backend, bool fuse,
                ThreadPool &pool, RuntimeProfile *outProfile,
                MemoryPlan *outPlan)
{
    const auto &info = models::findModel(name);
    ModelConfig mc;
    mc.batch = 1;
    mc.seqLen = cfg.seqLen > 0 ? cfg.seqLen : 8;
    mc.testScale = rt.scale;
    mc.decodeStep = cfg.decodeStep;
    Graph unfused = info.build(mc);
    if (cfg.quantize) {
        QuantizeConfig qc;
        qc.method = cfg.quantMethod;
        qc.outlierFraction = cfg.outlierFraction;
        unfused = quantizeLlmInt8(unfused, qc);
    }
    // Executable quantization rewrites the graph BEFORE fusion, so the
    // fused form fuses Int8Linear-headed groups. The float graph is
    // kept when verifying: int8 outputs are checked against it within
    // quantization tolerance (relative L2, not element-wise).
    quant::QuantExecMode qm = rt.quantMode();
    Graph floatBaseline;
    QuantizeStats qstats;
    if (qm != quant::QuantExecMode::Off) {
        if (rt.verify)
            floatBaseline = unfused;
        unfused = quant::applyQuantMode(unfused, qm, &qstats);
    }
    // When fusing, keep the unfused graph: --verify compares the two
    // (the ternary only moves it in the unfused case).
    FusionStats fstats;
    Graph g = fuse ? applyFusion(unfused, executableFusionConfig(),
                                 &fstats)
                   : std::move(unfused);

    size_t requests = static_cast<size_t>(cfg.batch);
    std::vector<std::vector<Tensor>> reqs;
    for (size_t r = 0; r < requests; ++r)
        reqs.push_back(requestInputs(g, r));

    std::cout << "== " << name << "  (" << g.size() << " nodes, scale 1/"
              << rt.scale << ", " << requests << " request"
              << (requests == 1 ? "" : "s") << ", backend "
              << backend.name() << (fuse ? ", fused" : "")
              << (qm != quant::QuantExecMode::Off
                      ? ", quant " + std::string(quant::quantModeName(qm))
                      : "")
              << ")\n";
    if (qm != quant::QuantExecMode::Off && qstats.linearsQuantized > 0) {
        std::cout << "  quant: " << qstats.linearsQuantized
                  << " linears -> int8";
        if (qstats.qdqPairsCancelled || qstats.requantFolded)
            std::cout << ", " << qstats.qdqPairsCancelled
                      << " Q/DQ pairs fused, " << qstats.requantFolded
                      << " requantizes folded into GEMMs";
        if (qstats.floatWeightBytes > 0)
            std::cout << ", weight memory "
                      << static_cast<double>(qstats.floatWeightBytes) /
                             static_cast<double>(qstats.packedWeightBytes)
                      << "x smaller";
        std::cout << "\n";
    }
    if (fuse)
        std::cout << "  fusion: " << fstats.groupsEmitted
                  << " kernel groups, " << fstats.fusedNonGemm << "/"
                  << fstats.totalNonGemm << " non-GEMM ops fused (rate "
                  << fstats.fusionRate() << "), " << fstats.fusedWithGemm
                  << " folded into GEMM kernels\n";

    std::vector<std::vector<Tensor>> outs(requests);
    if (rt.parallel && requests > 1) {
        // Inter-request parallelism: one planned graph, N requests.
        BatchDriver driver(g, pool, backend, rt.intraOpMode());
        outs = driver.run(reqs);
        printMemoryPlan(driver.memoryPlan(), std::cout);
        printRuntimeReport(driver.profile(), std::cout);
        printNonGemmReport(buildNonGemmReport(g),
                           driver.profile().usByCategory, std::cout);
        if (outProfile)
            *outProfile = driver.profile();
        if (outPlan)
            *outPlan = driver.memoryPlan();
    } else if (rt.parallel) {
        // Single request: wavefront (intra-graph) parallelism, deep
        // levels handing the pool to GEMMs per the hybrid scheduler.
        ParallelExecutor ex(g, pool, backend, rt.intraOpMode());
        outs[0] = ex.run(reqs[0]);
        printMemoryPlan(ex.memoryPlan(), std::cout);
        printRuntimeReport(ex.profile(), std::cout);
        printNonGemmReport(buildNonGemmReport(g),
                           ex.profile().usByCategory, std::cout);
        if (outProfile)
            *outProfile = ex.profile();
        if (outPlan)
            *outPlan = ex.memoryPlan();
    } else {
        Executor ex(g, backend);
        for (size_t r = 0; r < requests; ++r)
            outs[r] = ex.run(reqs[r]);
        MemoryPlan plan = planMemory(g, Schedule::wavefront(g));
        printMemoryPlan(plan, std::cout);
    }

    if (rt.verify) {
        // Bit-identity against a serial walk of the SAME backend:
        // parallelism / batching must never change a single bit. The
        // serial Executor allocates from the heap, so for the parallel
        // runtime this doubles as the heap-vs-arena assertion.
        Executor ref(g, backend);
        for (size_t r = 0; r < requests; ++r) {
            if (!bitIdentical(outs[r], ref.run(reqs[r]))) {
                std::cout << "  VERIFY FAILED: request " << r
                          << " differs from serial Executor\n";
                return false;
            }
        }
        std::cout << "  verify: all " << requests
                  << " request outputs bit-identical to serial "
                  << backend.name()
                  << (rt.parallel ? " (arena vs heap)" : "") << "\n";
        // Fused execution must reproduce the unfused graph under the
        // SAME backend: bit-identical where chains are interpreted /
        // single-passed, within tolerance ONLY where a non-reference
        // backend pre-merges a Conv-headed group's affines (the
        // documented reassociation) — anything else failing
        // bit-identity is a fused-kernel regression.
        if (fuse) {
            bool conv_fused = false;
            for (const Node &n : g.nodes())
                conv_fused = conv_fused ||
                             (n.kind == OpKind::Fused &&
                              !n.fusedBody.empty() &&
                              n.fusedBody[0].kind == OpKind::Conv2d);
            bool tolerance_ok =
                conv_fused &&
                backend.name() != referenceBackend().name();
            Executor unf(unfused, backend);
            bool all_bits = true;
            bool act_quant_fused =
                qm == quant::QuantExecMode::Int8 ||
                qm == quant::QuantExecMode::Int8Raw;
            for (size_t r = 0; r < requests; ++r) {
                std::vector<Tensor> want = unf.run(reqs[r]);
                // Under activation quantization the conv-group
                // reassociation is further amplified by absmax
                // boundaries (see the backend check below), so the
                // tolerance case widens to the quant comparator.
                std::string diff =
                    tolerance_ok
                        ? (act_quant_fused
                               ? quantDifference(outs[r], want)
                               : closeDifference(outs[r], want))
                        : bitDifference(outs[r], want);
                all_bits = all_bits && bitIdentical(outs[r], want);
                if (!diff.empty()) {
                    std::cout << "  VERIFY FAILED: request " << r
                              << " fused vs unfused: " << diff << "\n";
                    return false;
                }
            }
            std::cout << "  verify: all " << requests
                      << " fused outputs "
                      << (all_bits ? "bit-identical to"
                                   : "within tolerance of")
                      << " the unfused graph\n";
        }
        // A non-reference backend must additionally reproduce the
        // reference numerics within float tolerance (simd kernels
        // round FMA chains differently, so not bit-for-bit).
        // Activation-quantized graphs get the quant comparator
        // instead: the backends' float ops legally differ by ulps,
        // and an absmax scale moving one ulp shifts EVERY int8 code
        // of that tensor by a step — element-wise tolerance explodes
        // while the tensor as a whole stays within quantization
        // noise.
        bool act_quant = qm == quant::QuantExecMode::Int8 ||
                         qm == quant::QuantExecMode::Int8Raw;
        if (backend.name() != referenceBackend().name()) {
            Executor refref(g, referenceBackend());
            for (size_t r = 0; r < requests; ++r) {
                std::vector<Tensor> want = refref.run(reqs[r]);
                std::string diff =
                    act_quant ? quantDifference(outs[r], want)
                              : closeDifference(outs[r], want);
                if (!diff.empty()) {
                    std::cout << "  VERIFY FAILED: request " << r
                              << " vs reference backend: " << diff
                              << "\n";
                    return false;
                }
            }
            std::cout << "  verify: all " << requests
                      << " request outputs within tolerance of the "
                         "reference backend\n";
        }
        // Quantized execution must stay within quantization tolerance
        // of the FLOAT graph (relative L2 per output): the A/B that
        // proves int8 execution changed cost, not semantics.
        if (qm != quant::QuantExecMode::Off) {
            Executor fb(floatBaseline, backend);
            for (size_t r = 0; r < requests; ++r) {
                std::string diff =
                    quantDifference(outs[r], fb.run(reqs[r]));
                if (!diff.empty()) {
                    std::cout << "  VERIFY FAILED: request " << r
                              << " quantized vs float baseline: " << diff
                              << "\n";
                    return false;
                }
            }
            std::cout << "  verify: all " << requests
                      << " quantized outputs within quantization "
                         "tolerance of the float graph\n";
        }
    }
    return true;
}

int
runtimeMain(const BenchConfig &cfg, const RuntimeCli &rt,
            const ObsCliOpts &obsOut, const std::string &json)
{
    ThreadPool pool(rt.parallel ? rt.threads : 1);
    std::vector<std::string> names;
    if (cfg.model == "all") {
        for (const auto &m : models::modelRegistry())
            names.push_back(m.name);
    } else {
        names.push_back(cfg.model);
    }

    // --backend both: measure the same graphs under reference AND
    // simd kernels and print the side-by-side GEMM / non-GEMM
    // attribution — the paper's split re-measured as kernels improve.
    std::vector<const Backend *> backends;
    if (rt.backend == "both")
        backends = {&referenceBackend(), &simdBackend()};
    else if (rt.backend.empty())
        backends = {&defaultBackend()};
    else
        backends = {&findBackend(rt.backend)};

    bool ok = true;
    RuntimeProfile profile;
    MemoryPlan memplan;
    bool measured = false;
    for (const std::string &name : names) {
        std::vector<RuntimeProfile> perBackend;
        for (const Backend *backend : backends) {
            bool want = rt.parallel;
            RuntimeProfile p;
            // --fuse in parallel mode measures the unfused graph
            // first, so the fused-vs-unfused attribution (GEMM share,
            // per-category split) prints side by side like
            // --backend both. Measurement only: the fused run right
            // after re-executes the unfused graph for its own verify,
            // so repeating the full battery here would triple the
            // serial re-executions per model.
            RuntimeProfile unfusedProfile;
            if (rt.fuse && want) {
                RuntimeCli measure = rt;
                measure.verify = false;
                ok = runRuntimeModel(name, cfg, measure, *backend,
                                     false, pool, &unfusedProfile,
                                     nullptr) &&
                     ok;
            }
            ok = runRuntimeModel(name, cfg, rt, *backend, rt.fuse, pool,
                                 want ? &p : nullptr,
                                 want ? &memplan : nullptr) &&
                 ok;
            if (rt.fuse && want)
                printRuntimeComparison(unfusedProfile, p,
                                       "unfused", "fused", std::cout);
            if (want && cfg.model != "all") {
                profile = p;
                measured = true;
            }
            if (want)
                perBackend.push_back(std::move(p));
        }
        if (perBackend.size() > 1)
            printBackendComparison(perBackend.front(), perBackend.back(),
                                   std::cout);
    }

    // For a single model also emit the modeled report for the SAME
    // graph the runtime executed (same scale and sequence length),
    // with the measured-runtime summary attached.
    if (cfg.model != "all") {
        BenchConfig scaled = cfg;
        scaled.testScale = rt.scale;
        scaled.batch = 1;
        scaled.seqLen = cfg.seqLen > 0 ? cfg.seqLen : 8;
        ProfileReport r = Bench::run(scaled);
        if (measured) {
            r.runtime.backend = profile.backend;
            r.runtime.fused = profile.fused;
            r.runtime.threads = profile.threads;
            r.runtime.intraop = profile.intraop;
            r.runtime.deepLevels = profile.deepLevelCount();
            r.runtime.requests = profile.requests;
            r.runtime.wallUs = profile.wallUs;
            r.runtime.sumUs = profile.sumUs;
            r.runtime.planUs = profile.planUs;
            r.runtime.levels = profile.schedule.numLevels;
            r.runtime.maxWidth = profile.schedule.maxWidth;
            r.runtime.arenaBytes = memplan.arenaBytes;
            r.runtime.totalTensorBytes = memplan.totalBytes;
            r.runtime.measuredPeakBytes = profile.memory.boundPeakBytes;
            r.runtime.heapAllocs = profile.memory.heapAllocs;
            r.runtime.scratchPeakBytes = profile.memory.scratchPeakBytes;
            r.runtime.scratchWorkerSumBytes =
                profile.memory.scratchWorkerSumBytes;
            r.runtime.quant = profile.quant;
            r.runtime.perf = profile.perf;
            r.runtime.modelFlops = profile.modelFlops;
            r.runtime.modelBytes = profile.modelBytes;
        }
        printReport(r, std::cout);
        if (!json.empty()) {
            std::ofstream f(json);
            writeJsonReport(r, f);
            std::cout << "wrote " << json << "\n";
        }
    }
    writeObsArtifacts(obsOut);
    return ok ? 0 : 1;
}

int
serveMain(const BenchConfig &cfg, const RuntimeCli &rt,
          const ServeCliOpts &sv, const ObsCliOpts &obsOut,
          const std::string &json)
{
    serve::ServeConfig sc;
    sc.mix = sv.mix.empty()
                 ? std::vector<serve::MixEntry>{{cfg.model, 1}}
                 : serve::parseMix(sv.mix);
    sc.rps = sv.rps;
    sc.durationS = sv.durationS;
    sc.clients = sv.clients;
    sc.policy.maxBatch = sv.maxBatch;
    sc.policy.timeoutUs = sv.batchTimeoutUs;
    sc.queueDepth = sv.queueDepth;
    if (sv.admission == "reject")
        sc.admission = AdmissionPolicy::Reject;
    else if (sv.admission == "block")
        sc.admission = AdmissionPolicy::Block;
    else
        throw std::runtime_error("--admission expects block|reject");
    sc.engine.scale = rt.scale;
    sc.engine.seqLen = cfg.seqLen > 0 ? cfg.seqLen : 8;
    sc.engine.backend = rt.backend;  // "" = process default
    if (rt.fuse)
        sc.engine.fuse = true;  // default: $NGB_FUSE
    if (!rt.quant.empty())  // default: $NGB_QUANT (EngineConfig)
        sc.engine.quant = quant::quantModeName(
            quant::parseQuantMode(rt.quant));
    sc.engine.intraop = rt.intraOpMode();  // flag beats $NGB_INTRAOP
    sc.seed = sv.seed;
    sc.verify = rt.verify;
    // The sampler thread rewrites these live every cadence tick; the
    // final post-drain snapshot lands in the same files.
    sc.metricsJsonPath = obsOut.metrics;
    sc.metricsPromPath = obsOut.prom;

    int threads = resolveThreads(rt.threads);
    std::cout << "== serving  mix=";
    for (size_t i = 0; i < sc.mix.size(); ++i)
        std::cout << (i ? "," : "") << sc.mix[i].model << ":"
                  << sc.mix[i].weight;
    if (sc.clients > 0)
        std::cout << "  closed-loop clients=" << sc.clients;
    else
        std::cout << "  open-loop rps=" << sc.rps;
    std::cout << "  duration=" << sc.durationS << "s  max_batch="
              << sc.policy.maxBatch << "  batch_timeout="
              << sc.policy.timeoutUs << "us  queue_depth="
              << sc.queueDepth << " (" << sv.admission << ")  threads="
              << threads << "  scale=1/" << rt.scale << "  backend="
              << (sc.engine.backend.empty() ? defaultBackend().name()
                                            : sc.engine.backend)
              << (sc.engine.fuse ? " (fused)" : "")
              << (sc.engine.quant != "off" ? "  quant=" + sc.engine.quant
                                           : "")
              << "  intraop=" << intraOpModeName(sc.engine.intraop)
              << "  seed=" << sc.seed << "\n";

    ThreadPool pool(threads);
    serve::ServeResult result = serve::runServe(sc, pool);
    printServeReport(result.stats, std::cout);

    bool ok = true;
    if (result.verified) {
        if (result.verifyMismatches == 0) {
            std::cout << "  verify: all " << result.verifiedRequests
                      << " served requests bit-identical to the serial "
                         "Executor\n";
        } else {
            std::cout << "  VERIFY FAILED: " << result.verifyMismatches
                      << " of " << result.verifiedRequests
                      << " served requests differ from serial\n";
            ok = false;
        }
    }
    if (result.stats.completed != result.stats.admitted) {
        std::cout << "  WARNING: " << result.stats.admitted
                  << " admitted but only " << result.stats.completed
                  << " completed\n";
        ok = false;
    }
    if (!json.empty()) {
        std::ofstream f(json);
        writeServeJson(result.stats, f);
        std::cout << "wrote " << json << "\n";
    }
    // runServe already rewrote the metrics snapshots live (sampler
    // cadence) and once post-drain; this re-render is byte-identical
    // and exists to print the "wrote" lines and the span count.
    writeObsArtifacts(obsOut);
    return ok ? 0 : 1;
}

void
usage()
{
    std::cout <<
        "NonGEMM Bench (C++): operator-level GEMM/non-GEMM profiling\n"
        "\n"
        "usage: ngb [options]\n"
        "  --list               list registry models and exit\n"
        "  --model NAME         model to profile (default vit_b; 'all'\n"
        "                       iterates the registry in --runtime mode)\n"
        "  --flow FLOW          pytorch|inductor|ort|tensorrt\n"
        "  --platform A|B       data center (A) or workstation (B)\n"
        "  --batch N            batch size (default 1)\n"
        "  --seq N              sequence length for NLP models\n"
        "  --cpu-only           disable GPU acceleration\n"
        "  --quantize           apply the LLM.int8() pass\n"
        "  --decode             profile one generate() decode step\n"
        "  --ops-csv FILE       write per-op CSV\n"
        "  --cat-csv FILE       write category CSV\n"
        "  --json FILE          write the full report as JSON\n"
        "  --svg FILE           write a stacked-bar SVG\n"
        "  --trace FILE         write a Chrome/Perfetto trace JSON. In\n"
        "                       the analytical bench this is the MODELED\n"
        "                       cost-model timeline; with --runtime or\n"
        "                       --serve it enables span tracing and\n"
        "                       exports the MEASURED trace (queue, batch,\n"
        "                       request, level, and per-kernel spans,\n"
        "                       per-request trace ids). $NGB_TRACE=1\n"
        "                       enables recording without exporting\n"
        "  --dot FILE           write the operator graph as Graphviz\n"
        "  --workload           print the Section III-C workload report\n"
        "\n"
        "concrete execution (src/runtime):\n"
        "  --runtime MODE       serial | parallel: actually execute the\n"
        "                       graph; --batch N becomes N independent\n"
        "                       requests through one planned graph\n"
        "  --threads N          worker threads (default: hardware)\n"
        "  --scale N            shrink models by N for host execution\n"
        "                       (default 8; 1 = paper scale, slow)\n"
        "  --backend NAME       kernel backend: reference | simd, or\n"
        "                       'both' to measure the same graph\n"
        "                       under reference and simd and print\n"
        "                       the side-by-side GEMM/non-GEMM\n"
        "                       attribution (default:\n"
        "                       $NGB_BACKEND or reference)\n"
        "  --isa LEVEL          auto | scalar | neon | avx2 | avx512:\n"
        "                       force the process-wide SIMD dispatch\n"
        "                       level the simd backend registers its\n"
        "                       kernels at. scalar (the portable\n"
        "                       kernels) is always allowed; neon needs\n"
        "                       aarch64, avx2/avx512 need x86, and\n"
        "                       asking for a level the host/build\n"
        "                       cannot run is an error. auto\n"
        "                       (default) uses runtime CPU detection.\n"
        "                       $NGB_ISA sets it ambiently (clamped,\n"
        "                       with a warning, instead of erroring)\n"
        "  --quant MODE         executable int8 quantization, applied\n"
        "                       before fusion and planning:\n"
        "                         int8     activations + weights int8,\n"
        "                                  per-channel weight scales,\n"
        "                                  requantize fused into the\n"
        "                                  GEMM epilogue, adjacent Q/DQ\n"
        "                                  pairs eliminated\n"
        "                         int8-raw int8 without Q/DQ\n"
        "                                  elimination (the granular\n"
        "                                  form; bit-identical outputs\n"
        "                                  to int8)\n"
        "                         w8       weight-only int8: weights\n"
        "                                  stored packed int8 and\n"
        "                                  dequantized inside the GEMM\n"
        "                         off      float execution (default)\n"
        "                       With --verify, quantized outputs are\n"
        "                       additionally checked against the float\n"
        "                       graph within quantization tolerance\n"
        "                       (relative L2 per output). $NGB_QUANT\n"
        "                       sets the process default; works with\n"
        "                       --serve too (quant mode is part of the\n"
        "                       engine-cache key)\n"
        "  --intraop MODE       on | off | auto: intra-op parallelism\n"
        "                       (hybrid inter/intra-op scheduling).\n"
        "                       off keeps kernels serial (wavefront /\n"
        "                       batch parallelism only); on hands the\n"
        "                       pool to GEMMs whenever a level or batch\n"
        "                       is narrower than the pool; auto\n"
        "                       (default) asks a per-level cost model.\n"
        "                       Sharding splits M/N macro-tiles, never\n"
        "                       the K reduction, so outputs are\n"
        "                       bit-identical at every thread count.\n"
        "                       $NGB_INTRAOP sets the process default;\n"
        "                       applies to --serve too (part of the\n"
        "                       engine-cache key)\n"
        "  --fuse               applyFusion before executing: CONV+BN\n"
        "                       (+act) folding, point-wise chains, and\n"
        "                       GEMM epilogues run as single fused\n"
        "                       kernels. In parallel mode the unfused\n"
        "                       graph is measured too and the\n"
        "                       fused-vs-unfused per-category split is\n"
        "                       printed side by side. Implies\n"
        "                       --runtime parallel when neither\n"
        "                       --runtime nor --serve is given.\n"
        "                       $NGB_FUSE=1 sets it process-wide.\n"
        "  --verify             cross-check outputs bit-identically\n"
        "                       against a serial walk of the same\n"
        "                       backend; non-reference backends are\n"
        "                       additionally checked against the\n"
        "                       reference backend within tolerance;\n"
        "                       with --fuse, fused outputs are also\n"
        "                       checked against the unfused graph\n"
        "\n"
        "serving (src/serve): closed-box server under synthetic load\n"
        "  --serve              serve a traffic mix through the engine\n"
        "                       cache + dynamic batcher and report\n"
        "                       p50/p95/p99 queue/execute latency\n"
        "  --mix SPEC           weighted tenant mix, e.g. vit_b:4,gpt2:1\n"
        "                       (default: --model alone)\n"
        "  --rps X              open-loop Poisson arrival rate (default\n"
        "                       100)\n"
        "  --clients N          closed-loop: N clients, each waiting for\n"
        "                       its previous request (disables --rps)\n"
        "  --duration-s X       load-generation horizon (default 2)\n"
        "  --max-batch N        close a batch at N requests (default 8)\n"
        "  --batch-timeout-us N close a partial batch once its oldest\n"
        "                       request waited N us (default 2000)\n"
        "  --queue-depth N      admission-control bound (default 256)\n"
        "  --admission POL      block | reject when the queue is full\n"
        "  --seed N             load-gen seed (default 42): open-loop\n"
        "                       trace and all request outputs are\n"
        "                       deterministic under a fixed seed\n"
        "\n"
        "observability (src/obs), --runtime/--serve modes only:\n"
        "  --metrics FILE       meter the run (counters, gauges,\n"
        "                       log-bucketed latency histograms) and\n"
        "                       write the registry snapshot as JSON; in\n"
        "                       --serve mode the file is rewritten live\n"
        "                       every sampler tick. $NGB_METRICS=1\n"
        "                       enables metering without exporting\n"
        "  --prom FILE          same snapshot in Prometheus text format\n"
        "  --perf               sample hardware counters (cycles,\n"
        "                       instructions, LLC/branch misses) around\n"
        "                       every kernel scope via perf_event_open\n"
        "                       and report per-category IPC/MPKI plus a\n"
        "                       measured roofline; degrades to a clock\n"
        "                       fallback when the syscall is denied\n"
        "                       (see kernel.perf_event_paranoid).\n"
        "                       $NGB_PERF=1 enables it too\n"
        "\n"
        "--threads/--scale/--seq/--verify/--backend/--fuse/--quant/\n"
        "--intraop/--json apply to --serve too (fused, quantized, and\n"
        "intra-op engines are cached separately).\n";
}

}  // namespace

int
main(int argc, char **argv)
{
    BenchConfig cfg;
    RuntimeCli rt;
    ServeCliOpts sv;
    ObsCliOpts obsOut;
    std::string ops_csv, cat_csv, svg, trace, json, dot;
    bool workload = false;
    bool flowFlagsUsed = false;   // --flow/--platform/--cpu-only seen
    bool serveFlagsUsed = false;  // any serving-only flag seen

    std::string a;  // current flag, for the catch below
    try {
    for (int i = 1; i < argc; ++i) {
        a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << a << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        // Strict numeric parses: the whole token must be consumed
        // ("4x" or "1e5" as an integer are usage errors, not 4 / 1),
        // and int-typed flags are range-checked instead of silently
        // wrapping through static_cast.
        auto strict = [&](const std::string &s, size_t used) {
            if (used != s.size()) {
                std::cerr << "invalid value for " << a << ": \"" << s
                          << "\"\n";
                std::exit(2);
            }
        };
        auto nextLong = [&]() -> long {
            std::string s = next();
            size_t used = 0;
            long v = std::stol(s, &used);
            strict(s, used);
            return v;
        };
        auto nextDouble = [&]() -> double {
            std::string s = next();
            size_t used = 0;
            double v = std::stod(s, &used);
            strict(s, used);
            return v;
        };
        auto nextU64 = [&]() -> uint64_t {
            std::string s = next();
            if (!s.empty() && s[0] == '-') {
                // stoull would silently wrap "-1" to 2^64-1.
                std::cerr << a << " must be >= 0\n";
                std::exit(2);
            }
            size_t used = 0;
            unsigned long long v = std::stoull(s, &used);
            strict(s, used);
            return v;
        };
        auto nextInt = [&](long lo, long hi) -> int {
            long v = nextLong();
            if (v < lo || v > hi) {
                std::cerr << a << " must be in [" << lo << ", " << hi
                          << "]\n";
                std::exit(2);
            }
            return static_cast<int>(v);
        };
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--list") {
            std::cout << "registry (" << models::modelRegistry().size()
                      << " models):\n";
            for (const auto &m : models::modelRegistry())
                std::cout << "  " << m.name << "  [" << m.task << ", "
                          << m.dataset << "]"
                          << (m.halfPrecision ? " fp16" : "") << "\n";
            return 0;
        } else if (a == "--model") {
            cfg.model = next();
        } else if (a == "--flow") {
            cfg.flow = next();
            flowFlagsUsed = true;
        } else if (a == "--platform") {
            cfg.platform = next();
            flowFlagsUsed = true;
        } else if (a == "--batch") {
            cfg.batch = nextLong();
        } else if (a == "--seq") {
            cfg.seqLen = nextLong();
        } else if (a == "--cpu-only") {
            cfg.gpu = false;
            flowFlagsUsed = true;
        } else if (a == "--quantize") {
            cfg.quantize = true;
        } else if (a == "--decode") {
            cfg.decodeStep = true;
        } else if (a == "--runtime") {
            std::string mode = next();
            if (mode != "serial" && mode != "parallel") {
                std::cerr << "--runtime expects serial|parallel\n";
                return 2;
            }
            rt.enabled = true;
            rt.parallel = mode == "parallel";
        } else if (a == "--serve") {
            sv.enabled = true;
        } else if (a == "--mix") {
            sv.mix = next();
            serveFlagsUsed = true;
        } else if (a == "--rps") {
            sv.rps = nextDouble();
            serveFlagsUsed = true;
        } else if (a == "--clients") {
            // Closed loop spawns one OS thread per client; bound it to
            // what that model can actually support.
            sv.clients = nextInt(0, 1024);
            serveFlagsUsed = true;
        } else if (a == "--duration-s") {
            sv.durationS = nextDouble();
            serveFlagsUsed = true;
        } else if (a == "--max-batch") {
            sv.maxBatch = nextInt(1, 1 << 20);
            serveFlagsUsed = true;
        } else if (a == "--batch-timeout-us") {
            sv.batchTimeoutUs = nextLong();
            serveFlagsUsed = true;
        } else if (a == "--queue-depth") {
            // Signed parse: stoul would wrap "-1" to a huge depth and
            // silently disable admission control.
            long depth = nextLong();
            if (depth < 1) {
                std::cerr << "--queue-depth must be >= 1\n";
                return 2;
            }
            sv.queueDepth = static_cast<size_t>(depth);
            serveFlagsUsed = true;
        } else if (a == "--admission") {
            sv.admission = next();
            serveFlagsUsed = true;
        } else if (a == "--seed") {
            sv.seed = nextU64();
            serveFlagsUsed = true;
        } else if (a == "--backend") {
            rt.backend = next();
        } else if (a == "--isa") {
            // Applied immediately, before any backend is built: the
            // simd backend registers kernels for the level active at
            // its first use, so the override must precede it.
            try {
                platform::setActiveIsaName(next());
            } catch (const std::exception &e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        } else if (a == "--fuse") {
            rt.fuse = true;
        } else if (a == "--quant") {
            rt.quant = next();
            try {
                quant::parseQuantMode(rt.quant);
            } catch (const std::exception &e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        } else if (a == "--intraop") {
            rt.intraop = next();
            try {
                parseIntraOpMode(rt.intraop);
            } catch (const std::exception &e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        } else if (a == "--threads") {
            rt.threads = nextInt(0, 1 << 14);
        } else if (a == "--scale") {
            rt.scale = nextLong();
        } else if (a == "--verify") {
            rt.verify = true;
        } else if (a == "--json") {
            json = next();
        } else if (a == "--dot") {
            dot = next();
        } else if (a == "--workload") {
            workload = true;
        } else if (a == "--ops-csv") {
            ops_csv = next();
        } else if (a == "--cat-csv") {
            cat_csv = next();
        } else if (a == "--svg") {
            svg = next();
        } else if (a == "--trace") {
            trace = next();
        } else if (a == "--metrics") {
            obsOut.metrics = next();
        } else if (a == "--prom") {
            obsOut.prom = next();
        } else if (a == "--perf") {
            obsOut.perf = true;
        } else {
            std::cerr << "unknown option: " << a << "\n";
            usage();
            return 2;
        }
    }
    } catch (const std::exception &) {
        // std::sto* on a malformed number must be a usage error, not
        // an uncaught-exception abort.
        std::cerr << "invalid value for " << a << "\n";
        return 2;
    }

    if (sv.enabled && rt.enabled) {
        std::cerr << "--serve and --runtime are mutually exclusive\n";
        return 2;
    }
    // $NGB_FUSE flips the default only for modes that actually
    // execute kernels; a bare analytical-bench invocation must keep
    // producing the modeled report regardless of the environment.
    if (fuseEnabledByEnv() && (rt.enabled || sv.enabled))
        rt.fuse = true;
    if (rt.fuse && !rt.enabled && !sv.enabled) {
        // Fusion is an execution-level rewrite; bare --fuse means
        // "execute it": default to the parallel runtime so --verify
        // also covers serial-vs-parallel bit-identity on the fused
        // graph.
        rt.enabled = true;
        rt.parallel = true;
    }
    if (serveFlagsUsed && !sv.enabled) {
        // A forgotten --serve must not silently run the analytical
        // bench with every serving flag dropped.
        std::cerr << "serving flags (--mix/--rps/--clients/--duration-s/"
                     "--max-batch/--batch-timeout-us/--queue-depth/"
                     "--admission/--seed) require --serve\n";
        return 2;
    }
    if (sv.enabled && (cfg.quantize || cfg.decodeStep || cfg.batch != 1 ||
                       flowFlagsUsed)) {
        // Reject rather than silently serve a different graph than the
        // user asked for (--verify compares against the same engine
        // graph, so it cannot catch this).
        std::cerr << "--quantize/--decode/--batch/--flow/--platform/"
                     "--cpu-only are not supported in --serve mode "
                     "(engines serve the raw registry graph; traffic "
                     "comes from --mix/--rps)\n";
        return 2;
    }
    if (sv.enabled &&
        (sv.maxBatch < 1 || sv.batchTimeoutUs < 0 ||
         (sv.clients <= 0 && sv.rps <= 0) || sv.durationS <= 0 ||
         sv.clients < 0)) {
        std::cerr << "--serve: bad load/batch parameters (need max-batch"
                     " >= 1, batch-timeout-us >= 0, rps > 0,"
                     " duration-s > 0, clients >= 0)\n";
        return 2;
    }
    if (rt.enabled && cfg.batch < 1) {
        std::cerr << "--batch must be >= 1 in --runtime mode\n";
        return 2;
    }
    if ((rt.enabled || sv.enabled) && rt.scale < 1) {
        std::cerr << "--scale must be >= 1\n";
        return 2;
    }
    if (!rt.quant.empty() && !rt.enabled && !sv.enabled) {
        std::cerr << "--quant requires --runtime or --serve (use "
                     "--quantize for the modeled LLM.int8() rewrite in "
                     "the analytical bench)\n";
        return 2;
    }
    if (!rt.quant.empty() && cfg.quantize) {
        std::cerr << "--quant and --quantize are mutually exclusive "
                     "(executable int8 vs the modeled rewrite)\n";
        return 2;
    }
    if (!rt.backend.empty()) {
        if (!rt.enabled && !sv.enabled) {
            std::cerr << "--backend requires --runtime or --serve "
                         "(the analytical bench does not execute "
                         "kernels)\n";
            return 2;
        }
        if (rt.backend == "both" && sv.enabled) {
            std::cerr << "--backend both is a --runtime comparison "
                         "sweep; pick one backend for --serve\n";
            return 2;
        }
        if (rt.backend == "both" && rt.enabled && !rt.parallel) {
            // The side-by-side attribution needs measured per-node
            // timings, which only the parallel runtime collects.
            std::cerr << "--backend both requires --runtime parallel "
                         "(the serial walk does not measure per-op "
                         "time)\n";
            return 2;
        }
        if (rt.backend != "both") {
            try {
                findBackend(rt.backend);
            } catch (const std::exception &e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        }
    }
    if (obsOut.any() && !rt.enabled && !sv.enabled) {
        std::cerr << "--metrics/--prom/--perf require --runtime or "
                     "--serve (the analytical bench executes no "
                     "kernels to meter)\n";
        return 2;
    }
    if (rt.enabled || sv.enabled) {
        // In the executing modes --trace is the MEASURED trace: enable
        // span recording and export what actually ran. (The analytical
        // modes keep writing the modeled cost-model trace below.)
        if (!trace.empty()) {
            obsOut.trace = trace;
            trace.clear();
            obs::setTraceEnabled(true);
        }
        if (!obsOut.metrics.empty() || !obsOut.prom.empty())
            obs::setMetricsEnabled(true);
        if (obsOut.perf)
            obs::setPerfEnabled(true);
        if (!ops_csv.empty() || !cat_csv.empty() || !svg.empty() ||
            !dot.empty() || workload)
            std::cerr << "note: --ops-csv/--cat-csv/--svg/--dot/"
                         "--workload are ignored in --runtime/--serve "
                         "modes\n";
        if (rt.enabled && !json.empty() && cfg.model == "all")
            std::cerr << "note: --json is only written for a single "
                         "model in --runtime mode\n";
        if (sv.enabled && cfg.model == "all") {
            // "all" is a --runtime sweep; as a serve tenant it would
            // only fail later with an obscure unknown-model error.
            std::cerr << "--model all is not a serve tenant; list the "
                         "mix explicitly with --mix\n";
            return 2;
        }
    }

    try {
        if (sv.enabled)
            return serveMain(cfg, rt, sv, obsOut, json);
        if (rt.enabled)
            return runtimeMain(cfg, rt, obsOut, json);

        ProfileReport r = Bench::run(cfg);
        printReport(r, std::cout);

        if (!ops_csv.empty()) {
            std::ofstream f(ops_csv);
            writeOpCsv(r, f);
            std::cout << "wrote " << ops_csv << "\n";
        }
        if (!cat_csv.empty()) {
            std::ofstream f(cat_csv);
            writeCategoryCsv(r, f);
            std::cout << "wrote " << cat_csv << "\n";
        }
        if (!svg.empty()) {
            std::ofstream f(svg);
            SvgChartOptions opts;
            opts.title = cfg.model + " / " + cfg.flow + " / platform " +
                         cfg.platform;
            writeSvgChart({r}, opts, f);
            std::cout << "wrote " << svg << "\n";
        }
        if (!json.empty()) {
            std::ofstream f(json);
            writeJsonReport(r, f);
            std::cout << "wrote " << json << "\n";
        }
        if (workload || !dot.empty() || !trace.empty()) {
            // Rebuild the graph/plan for graph-level outputs.
            const auto &info = models::findModel(cfg.model);
            ModelConfig mc;
            mc.batch = cfg.batch;
            mc.seqLen = cfg.seqLen > 0 ? cfg.seqLen
                                       : std::max<int64_t>(
                                             info.defaultSeqLen, 8);
            mc.decodeStep = cfg.decodeStep;
            Graph g = info.build(mc);
            if (cfg.quantize) {
                QuantizeConfig qc;
                g = quantizeLlmInt8(g, qc);
            }
            ValidationResult vr = validateGraph(g);
            if (!vr.ok())
                std::cerr << "graph validation failed:\n"
                          << formatIssues(vr);
            if (workload)
                printWorkloadReport(buildWorkloadReport(g), std::cout);
            if (!dot.empty()) {
                std::ofstream f(dot);
                DotOptions opts;
                writeDot(g, opts, f);
                std::cout << "wrote " << dot << "\n";
            }
            if (!trace.empty()) {
                auto flow = makeFlow(cfg.flow);
                FlowOptions fo;
                fo.gpu = cfg.gpu;
                fo.f16 = info.halfPrecision;
                ExecutionPlan plan = flow->plan(g, fo);
                CostModel cm(platformById(cfg.platform), cfg.costParams);
                auto timings = cm.priceAll(plan);
                std::ofstream f(trace);
                writeChromeTrace(plan, timings, f);
                std::cout << "wrote " << trace << "\n";
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
