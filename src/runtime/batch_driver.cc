#include "runtime/batch_driver.h"

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

}  // namespace

std::shared_ptr<EnginePlan>
buildEnginePlan(const Graph &g)
{
    obs::ScopedSpan span(obs::SpanKind::Plan);
    span.ev().setLabel(g.name());
    span.ev().a0 = static_cast<int64_t>(g.size());

    auto plan = std::make_shared<EnginePlan>();
    auto t0 = Clock::now();
    plan->sched = Schedule::wavefront(g);
    plan->memplan = planMemory(g, plan->sched);

    // Step-granular release for the serial per-request walk: a node's
    // results drop right after the last schedule step that reads them.
    const std::vector<int> &order = plan->sched.order();
    std::vector<int> step_of(g.size(), 0);
    for (size_t s = 0; s < order.size(); ++s)
        step_of[static_cast<size_t>(order[s])] = static_cast<int>(s);

    std::vector<int> last_step(g.size(), -1);
    for (const Node &n : g.nodes())
        for (const Value &v : n.inputs)
            last_step[static_cast<size_t>(v.node)] =
                std::max(last_step[static_cast<size_t>(v.node)],
                         step_of[static_cast<size_t>(n.id)]);
    int end = static_cast<int>(order.size()) - 1;
    for (const Value &v : g.graphOutputs())
        last_step[static_cast<size_t>(v.node)] = end + 1;  // never drop
    for (const Value &v : g.graphInputs())
        last_step[static_cast<size_t>(v.node)] = end + 1;  // caller-owned

    plan->releaseAfterStep.resize(order.size());
    for (size_t id = 0; id < last_step.size(); ++id)
        if (last_step[id] >= 0 && last_step[id] <= end)
            plan->releaseAfterStep[static_cast<size_t>(last_step[id])]
                .push_back(static_cast<int>(id));

    plan->params.materialize(g);
    plan->arenas.configure(plan->memplan.arenaBytes);
    plan->planUs = elapsedUsSince(t0);
    span.ev().a1 = plan->memplan.arenaBytes;
    return plan;
}

BatchDriver::BatchDriver(const Graph &g, ThreadPool &pool,
                         const Backend &backend, IntraOpMode intraop)
    : BatchDriver(g, pool, buildEnginePlan(g), backend, intraop)
{
}

BatchDriver::BatchDriver(const Graph &g, ThreadPool &pool,
                         std::shared_ptr<EnginePlan> plan,
                         const Backend &backend, IntraOpMode intraop)
    : g_(g), pool_(pool), plan_(std::move(plan)), backend_(backend),
      intraop_(intraop)
{
    if (!plan_)
        throw std::runtime_error("BatchDriver: null EnginePlan");
    // Backend warm-up (e.g. packed Linear weights) happens here, with
    // planning, so request timings never include first-touch
    // preprocessing. Idempotent on a shared plan: derived state is
    // memoized in the plan's ParamStore.
    auto t0 = Clock::now();
    backend_.prepare(g_, plan_->params);
    profile_.planUs = plan_->planUs + elapsedUsSince(t0);
    profile_.backend = backend_.name();
    profile_.fused = g_.hasFusedNodes();
    profile_.quant = quant::quantExecStatsOf(g_);
    for (const Node &n : g_.nodes()) {
        profile_.modelFlops += n.cost.flops;
        profile_.modelBytes += n.cost.totalBytes();
    }
}

std::vector<Tensor>
BatchDriver::runOne(const std::vector<Tensor> &inputs,
                    std::vector<double> &node_us, RequestMemory &mem,
                    const ParallelRegion *par)
{
    const auto &gin = g_.graphInputs();
    if (inputs.size() != gin.size())
        throw std::runtime_error("BatchDriver: expected " +
                                 std::to_string(gin.size()) +
                                 " inputs per request");

    std::vector<std::vector<Tensor>> results(g_.size());
    for (size_t i = 0; i < gin.size(); ++i) {
        const Value &v = gin[i];
        if (inputs[i].shape() != g_.shapeOf(v))
            throw std::runtime_error(
                "BatchDriver: input " + std::to_string(i) + " shape " +
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
                "BatchDriver: missing input value from node " +
                std::to_string(v.node));
        return slot[static_cast<size_t>(v.index)];
    };

    // ParamStore::get is safe concurrently and, after materialize(),
    // lock-held time is one map lookup.
    ParamStore &params = plan_->params;

    // One pooled arena block per in-flight request: planned node
    // outputs land at their planned offsets, zero mallocs steady
    // state. The block recycles once the caller drops the outputs.
    // A plan that places nothing (arenaBytes 0) has no block.
    std::unique_ptr<ArenaAllocator> arena_alloc;
    if (plan_->memplan.arenaBytes > 0)
        arena_alloc = std::make_unique<ArenaAllocator>(
            plan_->memplan, plan_->arenas.acquire());

    const std::vector<int> &order = plan_->sched.order();
    for (size_t step = 0; step < order.size(); ++step) {
        const Node &n = g_.node(order[step]);
        auto id = static_cast<size_t>(n.id);
        if (results[id].empty() || !results[id][0].defined()) {
            auto k0 = Clock::now();
            if (n.inputs.empty()) {
                if (n.paramShapes.empty())
                    throw std::runtime_error(
                        "BatchDriver: input node without a bound tensor: " +
                        n.name);
                results[id] = {params.get(n, 0)};
            } else {
                ScratchScope scratch;  // node-lifetime temporaries
                results[id] = evalNode(n, lookup, params, backend_,
                                       arena_alloc.get(), par);
            }
            node_us[id] += elapsedUsSince(k0);
        }
        for (int rid : plan_->releaseAfterStep[step])
            results[static_cast<size_t>(rid)].clear();
    }

    if (arena_alloc) {
        mem.boundPeakBytes = arena_alloc->boundPeakBytes();
        mem.arenaTensors = arena_alloc->planned();
        mem.heapTensors = arena_alloc->fallbacks();
    }

    std::vector<Tensor> outs;
    for (const Value &v : g_.graphOutputs())
        outs.push_back(lookup(v));
    return outs;
}

std::vector<std::vector<Tensor>>
BatchDriver::run(const std::vector<std::vector<Tensor>> &requests,
                 const std::vector<uint64_t> *traceIds)
{
    std::vector<std::vector<Tensor>> outputs(requests.size());
    std::vector<std::vector<double>> node_us(
        requests.size(), std::vector<double>(g_.size(), 0));
    std::vector<RequestMemory> req_mem(requests.size());

    for ([[maybe_unused]] const auto &ws : pool_.drainStats())
        ;  // reset pre-run counters
    uint64_t allocs0 = Storage::heapAllocCount();
    uint64_t alloc_bytes0 = Storage::heapAllocBytes();

    // Post-join difference of cumulative aggregator snapshots = this
    // batch's counter aggregate (the eval seam accumulates on workers).
    obs::PerfCounterStats perf0;
    if (obs::perfEnabled())
        perf0 = obs::PerfAggregator::instance().totals();

    // Hybrid scheduling: many requests saturate the pool with
    // inter-request parallelism (kernels serial); a batch of ONE
    // request has no inter-request parallelism to exploit, so with
    // intra-op enabled it runs HERE — on the dispatch thread, outside
    // any pool task, so the nesting guard doesn't inline its shards —
    // lending the whole pool to its GEMMs through a region.
    const bool deep = intraop_ != IntraOpMode::Off &&
                      requests.size() == 1 && pool_.threads() > 1;

    auto run_request = [&](size_t r, const ParallelRegion *par) {
        // The serving layer's per-request id rides into every span
        // this request records on whichever worker picked it up.
        // Standalone (--runtime) batches get synthetic 1-based ids so
        // their spans still group per request in the trace viewer.
        obs::TraceIdScope tid(traceIds && r < traceIds->size()
                                  ? (*traceIds)[r]
                                  : static_cast<uint64_t>(r) + 1);
        obs::ScopedSpan span(obs::SpanKind::Request);
        span.ev().a0 = static_cast<int64_t>(r);
        // Attach-only: the request runs on this worker, so its span
        // payload is the request's own counter footprint (kernel
        // scopes inside it do the per-category aggregation).
        obs::CounterScope counters(span.armed() ? &span.ev() : nullptr);
        outputs[r] = runOne(requests[r], node_us[r], req_mem[r], par);
    };

    auto wall0 = Clock::now();
    if (deep) {
        ParallelRegion region(&pool_);
        run_request(0, &region);
    } else {
        pool_.parallelFor(requests.size(),
                          [&](size_t r, int) { run_request(r, nullptr); });
    }
    profile_.wallUs = elapsedUsSince(wall0);

    profile_.perf = obs::PerfCounterStats{};
    if (obs::perfEnabled())
        profile_.perf = obs::PerfCounterStats::since(
            perf0, obs::PerfAggregator::instance().totals());

    profile_.threads = pool_.threads();
    profile_.requests = static_cast<int>(requests.size());
    profile_.intraop = intraOpModeName(intraop_);
    profile_.schedule = plan_->sched.stats();
    profile_.levels.clear();
    profile_.sumUs = 0;
    profile_.usByCategory.clear();
    profile_.quant.int8GemmUs = 0;
    profile_.quant.floatGemmUs = 0;
    profile_.quant.qdqUs = 0;
    for (const Node &n : g_.nodes()) {
        double us = 0;
        for (const auto &per_request : node_us)
            us += per_request[static_cast<size_t>(n.id)];
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
    profile_.memory.plannedArenaBytes = plan_->memplan.arenaBytes;
    profile_.memory.plannedTotalBytes = plan_->memplan.totalBytes;
    profile_.memory.heapAllocs =
        static_cast<int64_t>(Storage::heapAllocCount() - allocs0);
    profile_.memory.heapAllocBytes =
        static_cast<int64_t>(Storage::heapAllocBytes() - alloc_bytes0);
    profile_.memory.scratchPeakBytes =
        ScratchArena::globalHighWaterBytes();
    profile_.memory.scratchWorkerSumBytes =
        ScratchArena::globalHighWaterSumBytes();
    for (const RequestMemory &m : req_mem) {
        profile_.memory.boundPeakBytes = std::max(
            profile_.memory.boundPeakBytes, m.boundPeakBytes);
        profile_.memory.arenaTensors += m.arenaTensors;
        profile_.memory.heapTensors += m.heapTensors;
    }
    profile_.memory.arenaBlocks =
        static_cast<int64_t>(plan_->arenas.blocks());
    return outputs;
}

}  // namespace ngb
