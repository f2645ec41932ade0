#include "serve/engine.h"

#include <chrono>

#include "models/registry.h"
#include "platform/cpu_features.h"
#include "runtime/runtime_profile.h"

namespace ngb {
namespace serve {

namespace {

/** Resolve an engine's backend: explicit pin > cache config > default. */
const Backend &
resolveBackend(const EngineConfig &cfg, const std::string &pin)
{
    const std::string &name = !pin.empty() ? pin : cfg.backend;
    return name.empty() ? defaultBackend() : findBackend(name);
}

/** The ISA level an engine key records: config pin > active level. */
std::string
resolveIsa(const EngineConfig &cfg)
{
    return cfg.isa.empty() ? platform::isaName(platform::activeIsa())
                           : cfg.isa;
}

}  // namespace

Engine::Engine(const std::string &model, const EngineConfig &cfg,
               ThreadPool &pool, const std::string &backendName)
    : model_(model)
{
    auto t0 = std::chrono::steady_clock::now();
    const auto &info = models::findModel(model);
    ModelConfig mc;
    mc.batch = 1;
    mc.seqLen = cfg.seqLen;
    mc.testScale = cfg.scale;
    graph_ = std::make_unique<Graph>(info.build(mc));
    quantMode_ = quant::parseQuantMode(cfg.quant);
    if (quantMode_ != quant::QuantExecMode::Off)
        *graph_ = quant::applyQuantMode(*graph_, quantMode_,
                                        &quantStats_);
    if (cfg.fuse)
        *graph_ = applyFusion(*graph_, executableFusionConfig());
    plan_ = buildEnginePlan(*graph_);
    backend_ = &resolveBackend(cfg, backendName);
    driver_ = std::make_unique<BatchDriver>(*graph_, pool, plan_,
                                            *backend_, cfg.intraop);
    buildUs_ = elapsedUsSince(t0);
}

EngineCache::EngineCache(ThreadPool &pool, EngineConfig cfg)
    : pool_(pool), cfg_(cfg)
{
}

Engine &
EngineCache::get(const std::string &model, const std::string &backend)
{
    std::lock_guard<std::mutex> lock(mutex_);
    EngineKey key{model, cfg_.scale, pool_.threads(),
                  resolveBackend(cfg_, backend).name(), cfg_.fuse,
                  cfg_.quant, resolveIsa(cfg_),
                  intraOpModeName(cfg_.intraop)};
    auto it = engines_.find(key);
    if (it != engines_.end()) {
        ++stats_.hits;
        return *it->second;
    }
    ++stats_.misses;
    auto engine = std::make_unique<Engine>(model, cfg_, pool_, backend);
    stats_.buildUs += engine->buildUs();
    auto [pos, inserted] = engines_.emplace(key, std::move(engine));
    (void)inserted;
    stats_.engines = engines_.size();
    return *pos->second;
}

EngineCache::Stats
EngineCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s = stats_;
    for (const auto &[key, engine] : engines_) {
        (void)key;
        s.arenaBlocks += engine->arenaBlocks();
        s.arenaBlockBytes +=
            static_cast<int64_t>(engine->arenaBlocks()) *
            engine->arenaBlockBytes();
        const quant::QuantExecStats &q = engine->driver().profile().quant;
        s.quant.quantized = s.quant.quantized || q.quantized;
        s.quant.int8Gemms += q.int8Gemms;
        s.quant.qdqOps += q.qdqOps;
        s.quant.packedWeightBytes += q.packedWeightBytes;
        s.quant.floatWeightBytes += q.floatWeightBytes;
    }
    return s;
}

}  // namespace serve
}  // namespace ngb
