#ifndef NGB_SERVE_ENGINE_H
#define NGB_SERVE_ENGINE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "deploy/fusion.h"
#include "ops/backend.h"
#include "quant/quant_mode.h"
#include "runtime/batch_driver.h"
#include "runtime/thread_pool.h"

namespace ngb {
namespace serve {

/** Graph-shape knobs shared by every engine a cache builds. */
struct EngineConfig {
    int64_t scale = 8;   ///< ModelConfig::testScale
    int64_t seqLen = 8;  ///< NLP sequence length

    /**
     * Default kernel backend for engines this cache builds; "" means
     * the process default ($NGB_BACKEND or reference). Individual
     * tenants can pin a different backend per EngineCache::get call.
     */
    std::string backend;

    /**
     * Run applyFusion (executableFusionConfig) on every engine's
     * graph before planning — the TensorRT-style "compile the engine
     * with fusion" deployment step. Defaults to $NGB_FUSE, so a CI
     * leg can serve the whole suite fused.
     */
    bool fuse = fuseEnabledByEnv();

    /** Not an option (engines always run on arenas); kept for readers. */
    static constexpr bool arena = true;

    /**
     * Executable quantization mode compiled into every engine of this
     * cache ("off", "int8", "int8-raw", "w8"): the quantize rewrite
     * (plus Q/DQ elimination for "int8") runs before fusion and
     * planning, so served engines execute quantized plans end to end.
     * Defaults to $NGB_QUANT.
     */
    std::string quant = quant::quantModeName(quant::quantModeFromEnv());

    /**
     * ISA dispatch level recorded in this cache's engine keys; ""
     * resolves to platform::activeIsa() when the key is built.
     * Dispatch itself is process-global (--isa / $NGB_ISA) — this
     * field keeps engines whose kernels were tile-tuned under one
     * dispatch level cached apart from engines built under another,
     * the same role the backend name plays in the key.
     */
    std::string isa;

    /**
     * Intra-op mode compiled into every engine of this cache: how the
     * BatchDriver hands pool threads to kernels on single-request
     * batches (and how its GEMMs tile-tune — thread count is part of
     * the TuneKey). Defaults to $NGB_INTRAOP; outputs are
     * bit-identical across modes.
     */
    IntraOpMode intraop = intraOpModeFromEnv();
};

/**
 * Identity of one planned engine. Thread count is part of the key
 * because the plan is amortized against a specific pool size — a
 * server that resizes its pool gets distinct engines, the same way
 * TensorRT engines are keyed by build-time configuration. The kernel
 * backend is part of the key too, so tenants pinning different
 * backends get distinct engines and per-backend measurements never
 * mix.
 */
struct EngineKey {
    std::string model;
    int64_t scale = 8;
    int threads = 1;
    std::string backend = "reference";
    bool fuse = false;   ///< engine graph was compiled with fusion
    std::string quant = "off";  ///< quantization mode compiled in
    std::string isa = "scalar"; ///< ISA dispatch level at build time
    std::string intraop = "off"; ///< intra-op mode compiled in

    bool operator<(const EngineKey &o) const
    {
        return std::tie(model, scale, threads, backend, fuse, quant,
                        isa, intraop) <
               std::tie(o.model, o.scale, o.threads, o.backend, o.fuse,
                        o.quant, o.isa, o.intraop);
    }
};

/**
 * A fully-planned, long-lived inference engine for one model: the
 * built Graph, its EnginePlan (wavefront schedule + arena memory plan
 * + materialized ParamStore), and a BatchDriver bound to the shared
 * pool. Construction pays the full planning cost once; run() then
 * streams any number of batches through the plan with no per-call
 * planning, which is exactly what the EngineCache amortizes across a
 * serving session.
 */
class Engine
{
  public:
    /**
     * Build the engine for @p model under kernel backend
     * @p backendName ("" = cfg.backend, itself defaulting to the
     * process default backend).
     */
    Engine(const std::string &model, const EngineConfig &cfg,
           ThreadPool &pool, const std::string &backendName = "");

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    const std::string &model() const { return model_; }
    const Graph &graph() const { return *graph_; }
    BatchDriver &driver() { return *driver_; }
    const Backend &backend() const { return *backend_; }

    /** Wall time spent building graph + plan (the cache-miss cost). */
    double buildUs() const { return buildUs_; }

    /** Arena blocks this engine's plan has materialized. */
    size_t arenaBlocks() const { return plan_->arenas.blocks(); }

    /** Bytes per arena block (the planned peak). */
    int64_t arenaBlockBytes() const
    {
        return plan_->arenas.blockBytes();
    }

    /** Quantization mode this engine was compiled with. */
    quant::QuantExecMode quantMode() const { return quantMode_; }

    /** What the quantize rewrite did (all-zero under mode off). */
    const QuantizeStats &quantizeStats() const { return quantStats_; }

    /** @p traceIds: per-request span tags, see BatchDriver::run. */
    std::vector<std::vector<Tensor>>
    run(const std::vector<std::vector<Tensor>> &requests,
        const std::vector<uint64_t> *traceIds = nullptr)
    {
        return driver_->run(requests, traceIds);
    }

  private:
    std::string model_;
    std::unique_ptr<Graph> graph_;
    std::shared_ptr<EnginePlan> plan_;
    const Backend *backend_ = nullptr;
    std::unique_ptr<BatchDriver> driver_;
    double buildUs_ = 0;
    quant::QuantExecMode quantMode_ = quant::QuantExecMode::Off;
    QuantizeStats quantStats_;
};

/**
 * Multi-tenant cache of planned engines, keyed (model, scale,
 * threads). get() builds on miss and counts hits/misses, so a serving
 * run can report how much planning it amortized. Thread-safe; the
 * returned Engine reference stays valid for the cache's lifetime
 * (engines are never evicted — the registry is small and plans are
 * the whole point of caching). A miss builds the engine while holding
 * the cache lock: with the single dispatch thread that is the design
 * point today, the cold-build stall is the serving stall either way;
 * a multi-dispatcher server would want a per-key once-latch here.
 */
class EngineCache
{
  public:
    struct Stats {
        int64_t hits = 0;
        int64_t misses = 0;
        double buildUs = 0;  ///< total planning time across misses
        size_t engines = 0;

        size_t arenaBlocks = 0;      ///< pooled blocks across engines
        int64_t arenaBlockBytes = 0; ///< total bytes of those blocks

        /** Quantization census summed across cached engines (times
         *  stay zero — serving attributes time per batch, not here). */
        quant::QuantExecStats quant;
    };

    explicit EngineCache(ThreadPool &pool, EngineConfig cfg = {});

    /**
     * Engine for @p model, building (and timing) it on a miss. A
     * tenant can pin a kernel backend with @p backend (""/default:
     * the cache config's backend); engines are keyed on the resolved
     * backend name, so the same model under two backends yields two
     * engines.
     */
    Engine &get(const std::string &model, const std::string &backend = "");

    Stats stats() const;

  private:
    ThreadPool &pool_;
    EngineConfig cfg_;
    mutable std::mutex mutex_;
    std::map<EngineKey, std::unique_ptr<Engine>> engines_;
    Stats stats_;
};

}  // namespace serve
}  // namespace ngb

#endif  // NGB_SERVE_ENGINE_H
