#include "runtime/parallel_executor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "obs/perf.h"
#include "obs/trace.h"
#include "tensor/scratch.h"

namespace ngb {

namespace {

using Clock = std::chrono::steady_clock;

/** GEMM work below this isn't worth forking a region for (matches the
 *  kParMinFlops serial cut inside the kernels themselves). */
constexpr double kDeepMinGemmFlops = 1 << 17;

/** Fraction of linear speedup a sharded GEMM actually achieves (pack
 *  overhead, ragged macro-tile grids, fork-join latency). */
constexpr double kIntraOpEfficiency = 0.7;

}  // namespace

ParallelExecutor::ParallelExecutor(const Graph &g, ThreadPool &pool,
                                   const Backend &backend,
                                   IntraOpMode intraop)
    : ParallelExecutor(g, Schedule::wavefront(g), pool, backend, intraop)
{
}

ParallelExecutor::ParallelExecutor(const Graph &g, Schedule sched,
                                   ThreadPool &pool,
                                   const Backend &backend,
                                   IntraOpMode intraop)
    : g_(g), sched_(std::move(sched)), pool_(pool), backend_(backend),
      params_(0x5eed), intraop_(intraop)
{
    auto t0 = Clock::now();
    profile_.backend = backend_.name();
    profile_.fused = g_.hasFusedNodes();
    profile_.quant = quant::quantExecStatsOf(g_);
    for (const Node &n : g_.nodes()) {
        profile_.modelFlops += n.cost.flops;
        profile_.modelBytes += n.cost.totalBytes();
    }
    memplan_ = planMemory(g_, sched_);
    arenaPool_.configure(memplan_.arenaBytes);

    // Per-node last-use level -> nodes releasable after each level.
    // The final level is never released: graph outputs live there.
    std::vector<int> last_level(g_.size(), -1);
    for (const TensorPlacement &p : memplan_.placements) {
        auto id = static_cast<size_t>(p.value.node);
        last_level[id] = std::max(last_level[id], p.lastLevel);
    }
    releaseAfterLevel_.resize(sched_.numLevels());
    int final_level = static_cast<int>(sched_.numLevels()) - 1;
    for (size_t id = 0; id < last_level.size(); ++id)
        if (last_level[id] >= 0 && last_level[id] < final_level)
            releaseAfterLevel_[static_cast<size_t>(last_level[id])]
                .push_back(static_cast<int>(id));

    // Hybrid inter/intra-op decision, per level. Everything it reads
    // is static (cost model + pool width), so it is resolved once
    // here and replayed by every run().
    const int T = pool_.threads();
    deepLevels_.assign(sched_.numLevels(), 0);
    if (intraop_ != IntraOpMode::Off && T > 1) {
        for (size_t lvl = 0; lvl < sched_.numLevels(); ++lvl) {
            const std::vector<int> &nodes = sched_.levels()[lvl];
            const auto width = static_cast<int>(nodes.size());
            double gemm_flops = 0;  // shardable work on this level
            double max_flops = 0;   // wide critical path per wave
            double deep_cost = 0;   // sequential, GEMMs sharded
            for (int id : nodes) {
                const Node &n = g_.node(id);
                const double f = n.cost.flops;
                max_flops = std::max(max_flops, f);
                const bool shardable =
                    n.category() == OpCategory::Gemm &&
                    f >= kDeepMinGemmFlops;
                if (shardable)
                    gemm_flops += f;
                deep_cost +=
                    shardable ? f / (T * kIntraOpEfficiency) : f;
            }
            if (gemm_flops <= 0)
                continue;  // nothing a region could speed up
            if (intraop_ == IntraOpMode::On) {
                deepLevels_[lvl] = width < T ? 1 : 0;
                continue;
            }
            // Auto: wide runs the level in ceil(width/T) waves, each
            // bounded by its heaviest node; deep runs nodes back to
            // back with GEMMs at ~70% of linear pool speedup.
            const double waves = (width + T - 1) / T;
            const double wide_cost = waves * max_flops;
            deepLevels_[lvl] = deep_cost < wide_cost ? 1 : 0;
        }
    }
    profile_.planUs = elapsedUsSince(t0);
}

std::vector<Tensor>
ParallelExecutor::run(const std::vector<Tensor> &inputs)
{
    const auto &gin = g_.graphInputs();
    if (inputs.size() != gin.size())
        throw std::runtime_error("ParallelExecutor: expected " +
                                 std::to_string(gin.size()) + " inputs");

    if (!warmedUp_) {
        // One serial pass so the hot loop's ParamStore lookups are
        // contention-free cache hits, plus the backend's own derived
        // state (e.g. packed weights) so kernels measure clean.
        auto t0 = Clock::now();
        params_.materialize(g_);
        backend_.prepare(g_, params_);
        profile_.planUs += elapsedUsSince(t0);
        warmedUp_ = true;
    }

    std::vector<std::vector<Tensor>> results(g_.size());
    for (size_t i = 0; i < gin.size(); ++i) {
        const Value &v = gin[i];
        if (inputs[i].shape() != g_.shapeOf(v))
            throw std::runtime_error(
                "ParallelExecutor: input " + std::to_string(i) + " shape " +
                inputs[i].shape().str() + " != declared " +
                g_.shapeOf(v).str());
        auto &slot = results[static_cast<size_t>(v.node)];
        if (slot.size() <= static_cast<size_t>(v.index))
            slot.resize(static_cast<size_t>(v.index) + 1);
        slot[static_cast<size_t>(v.index)] = inputs[i];
    }

    auto lookup = [&](const Value &v) -> const Tensor & {
        const auto &slot = results[static_cast<size_t>(v.node)];
        if (static_cast<size_t>(v.index) >= slot.size() ||
            !slot[static_cast<size_t>(v.index)].defined())
            throw std::runtime_error(
                "ParallelExecutor: missing input value from node " +
                std::to_string(v.node));
        return slot[static_cast<size_t>(v.index)];
    };

    std::vector<double> node_us(g_.size(), 0);
    double reset_baseline = 0;
    for (const ThreadPool::WorkerStats &ws : pool_.drainStats())
        reset_baseline += ws.busyUs;  // discard pre-run counters
    (void)reset_baseline;

    // Bind every planned output of this run to its offset inside one
    // pooled block (per-request slot); a plan placing nothing has none.
    std::unique_ptr<ArenaAllocator> arena_alloc;
    if (memplan_.arenaBytes > 0)
        arena_alloc = std::make_unique<ArenaAllocator>(
            memplan_, arenaPool_.acquire());
    uint64_t allocs0 = Storage::heapAllocCount();
    uint64_t alloc_bytes0 = Storage::heapAllocBytes();

    // The pool's workers don't inherit this thread's trace id —
    // re-establish it inside each task so node spans stay tagged.
    uint64_t trace_id = obs::currentTraceId();

    // Bracket the run with cumulative aggregator snapshots: the
    // kernel-level CounterScopes (eval seam) accumulate on the pool's
    // workers, and the post-join difference is this run's aggregate.
    obs::PerfCounterStats perf0;
    if (obs::perfEnabled())
        perf0 = obs::PerfAggregator::instance().totals();

    // One node, either path. A null region keeps the kernel serial
    // (wide levels); a pool-backed region lends it the workers (deep
    // levels). Outputs are bit-identical either way.
    auto eval_one = [&](int node_id, const ParallelRegion *par) {
        const Node &n = g_.node(node_id);
        auto id = static_cast<size_t>(n.id);
        if (!results[id].empty() && results[id][0].defined())
            return;  // graph input, already bound
        auto k0 = Clock::now();
        if (n.inputs.empty()) {
            if (n.paramShapes.empty())
                throw std::runtime_error(
                    "ParallelExecutor: input node without a bound "
                    "tensor: " + n.name);
            results[id] = {params_.get(n, 0)};
        } else {
            ScratchScope scratch;  // node-lifetime temporaries
            results[id] = evalNode(n, lookup, params_, backend_,
                                   arena_alloc.get(), par);
        }
        node_us[id] = elapsedUsSince(k0);
    };

    profile_.levels.clear();
    auto wall0 = Clock::now();
    for (size_t lvl = 0; lvl < sched_.numLevels(); ++lvl) {
        const std::vector<int> &nodes = sched_.levels()[lvl];
        const bool deep = deepLevels_[lvl] != 0;
        obs::ScopedSpan level_span(obs::SpanKind::Level);
        level_span.ev().a0 = static_cast<int64_t>(lvl);
        level_span.ev().a1 = static_cast<int64_t>(nodes.size());
        level_span.ev().a2 = deep ? 1 : 0;
        // Attach-only (never aggregated): this is the dispatching
        // thread's view of the fork-join region, not the workers'.
        obs::CounterScope level_counters(
            level_span.armed() ? &level_span.ev() : nullptr);
        auto t0 = Clock::now();
        if (deep) {
            // Deep: nodes sequential on this thread, each GEMM
            // sharding macro-tiles across the whole pool.
            ParallelRegion region(&pool_);
            for (int node_id : nodes)
                eval_one(node_id, &region);
        } else {
            // Wide: one task per node, kernels serial.
            pool_.parallelFor(nodes.size(), [&](size_t i, int) {
                obs::TraceIdScope tid(trace_id);
                eval_one(nodes[i], nullptr);
            });
        }
        LevelTiming lt;
        lt.level = static_cast<int>(lvl);
        lt.nodes = nodes.size();
        lt.wallUs = elapsedUsSince(t0);
        lt.deep = deep;
        profile_.levels.push_back(lt);

        for (int id : releaseAfterLevel_[lvl])
            results[static_cast<size_t>(id)].clear();
    }
    profile_.wallUs = elapsedUsSince(wall0);

    profile_.perf = obs::PerfCounterStats{};
    if (obs::perfEnabled())
        profile_.perf = obs::PerfCounterStats::since(
            perf0, obs::PerfAggregator::instance().totals());

    profile_.threads = pool_.threads();
    profile_.intraop = intraOpModeName(intraop_);
    profile_.schedule = sched_.stats();
    profile_.sumUs = 0;
    profile_.usByCategory.clear();
    profile_.quant.int8GemmUs = 0;
    profile_.quant.floatGemmUs = 0;
    profile_.quant.qdqUs = 0;
    for (const Node &n : g_.nodes()) {
        double us = node_us[static_cast<size_t>(n.id)];
        profile_.sumUs += us;
        profile_.usByCategory[n.category()] += us;
        if (quant::isInt8GemmNode(n))
            profile_.quant.int8GemmUs += us;
        else if (n.category() == OpCategory::Gemm)
            profile_.quant.floatGemmUs += us;
        else if (quant::isQdqExecNode(n))
            profile_.quant.qdqUs += us;
    }
    profile_.threadBusyUs.clear();
    profile_.steals = 0;
    for (const ThreadPool::WorkerStats &ws : pool_.drainStats()) {
        profile_.threadBusyUs.push_back(ws.busyUs);
        profile_.steals += ws.steals;
    }

    // Before the alloc count closes, so a presize shows up in it.
    pool_.presizeScratch();

    profile_.memory = MemoryStats{};
    profile_.memory.plannedArenaBytes = memplan_.arenaBytes;
    profile_.memory.plannedTotalBytes = memplan_.totalBytes;
    profile_.memory.heapAllocs =
        static_cast<int64_t>(Storage::heapAllocCount() - allocs0);
    profile_.memory.heapAllocBytes =
        static_cast<int64_t>(Storage::heapAllocBytes() - alloc_bytes0);
    profile_.memory.scratchPeakBytes =
        ScratchArena::globalHighWaterBytes();
    profile_.memory.scratchWorkerSumBytes =
        ScratchArena::globalHighWaterSumBytes();
    if (arena_alloc) {
        profile_.memory.boundPeakBytes = arena_alloc->boundPeakBytes();
        profile_.memory.arenaTensors = arena_alloc->planned();
        profile_.memory.heapTensors = arena_alloc->fallbacks();
        profile_.memory.arenaBlocks =
            static_cast<int64_t>(arenaPool_.blocks());
    }

    std::vector<Tensor> outs;
    for (const Value &v : g_.graphOutputs())
        outs.push_back(lookup(v));
    return outs;
}

}  // namespace ngb
