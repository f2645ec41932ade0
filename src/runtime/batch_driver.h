#ifndef NGB_RUNTIME_BATCH_DRIVER_H
#define NGB_RUNTIME_BATCH_DRIVER_H

#include <memory>
#include <vector>

#include "graph/executor.h"
#include "graph/node_eval.h"
#include "graph/schedule.h"
#include "runtime/arena.h"
#include "runtime/intraop.h"
#include "runtime/memory_planner.h"
#include "runtime/runtime_profile.h"
#include "runtime/thread_pool.h"

namespace ngb {

/**
 * The planning artifacts of one graph, built once and reused for the
 * lifetime of an engine: wavefront schedule, arena/lifetime memory
 * plan, step-granular release lists, and the fully materialized
 * (read-only thereafter) ParamStore.
 *
 * Splitting this out of BatchDriver lets the serving layer's Engine
 * own the expensive state and re-run traffic through a long-lived
 * driver without ever replanning; ParamStore holds a mutex, so the
 * struct is non-movable and is passed by shared_ptr.
 */
struct EnginePlan {
    Schedule sched;
    MemoryPlan memplan;
    ParamStore params{0x5eed};

    /** Node ids droppable after each position in schedule order. */
    std::vector<std::vector<int>> releaseAfterStep;

    /**
     * Arena blocks for the drivers of this plan, one per in-flight
     * request slot, recycled across requests (and across
     * every driver/engine sharing the plan) as callers drop outputs.
     */
    ArenaPool arenas;

    double planUs = 0;  ///< wall time spent planning + materializing
};

/** Build (and time) the full plan for @p g. */
std::shared_ptr<EnginePlan> buildEnginePlan(const Graph &g);

/**
 * Serving-style driver: run N independent requests through ONE
 * planned graph.
 *
 * Planning work — wavefront schedule, arena/lifetime memory plan,
 * deterministic parameter materialization — happens once per plan
 * and is amortized over every request, the way a serving stack builds
 * an engine once and then streams traffic through it. Requests are
 * then dispatched across the work-stealing pool; each request
 * executes in schedule order with eager lifetime-based tensor release
 * and all requests share the read-only ParamStore.
 *
 * run() is cheap to call repeatedly on a long-lived driver (no
 * per-call planning); it is not itself thread-safe — the serving
 * layer serializes batches through one dispatch thread.
 *
 * Parameters are identical per request (same ParamStore seed the
 * serial Executor uses), so request i's outputs are bit-identical to
 * `Executor(g).run(requests[i])` for every i, independent of thread
 * count, batch size, or scheduling order.
 *
 * Hybrid scheduling: a batch of many requests saturates the pool with
 * inter-request parallelism, so kernels stay serial. A batch of ONE
 * request (the latency-bound serving case) leaves every worker idle —
 * with intra-op enabled (IntraOpMode::On / Auto) it runs on the
 * calling thread with a full-pool ParallelRegion instead, so its
 * GEMMs shard across the workers. Outputs are bit-identical either
 * way (the ParallelRegion determinism contract).
 */
class BatchDriver
{
  public:
    /** Plan internally (schedule + arena + params) for @p g. */
    BatchDriver(const Graph &g, ThreadPool &pool,
                const Backend &backend = defaultBackend(),
                IntraOpMode intraop = intraOpModeFromEnv());

    /** Adopt an already-built @p plan for @p g (must match). */
    BatchDriver(const Graph &g, ThreadPool &pool,
                std::shared_ptr<EnginePlan> plan,
                const Backend &backend = defaultBackend(),
                IntraOpMode intraop = intraOpModeFromEnv());

    /**
     * Execute every request (one vector of graph-input tensors each)
     * and return per-request graph outputs, in request order.
     *
     * Outputs are always VIEWS into the request's pooled arena
     * block, so retaining them pins the whole block (plan.arenaBytes
     * — the request's full intermediate footprint, not just the
     * output bytes) until they are dropped.
     * Callers that keep outputs long-term should clone() them out,
     * the way the serve driver's collection sink does; callers that
     * consume and drop them (the steady-state serving loop) recycle
     * blocks automatically and allocate nothing.
     *
     * @p traceIds (optional, parallel to @p requests) tags each
     * request's measured spans — the whole schedule walk down to
     * per-node kernel evaluation — with the serving layer's
     * per-request trace id, so an exported trace reassembles batches
     * back into requests. Untagged requests record with id 0.
     */
    std::vector<std::vector<Tensor>>
    run(const std::vector<std::vector<Tensor>> &requests,
        const std::vector<uint64_t> *traceIds = nullptr);

    /** Measured timings of the last run(). */
    const RuntimeProfile &profile() const { return profile_; }

    const EnginePlan &plan() const { return *plan_; }
    const Schedule &schedule() const { return plan_->sched; }
    const MemoryPlan &memoryPlan() const { return plan_->memplan; }
    ParamStore &params() { return plan_->params; }
    const Backend &backend() const { return backend_; }
    IntraOpMode intraOpMode() const { return intraop_; }

  private:
    struct RequestMemory {
        int64_t boundPeakBytes = 0;
        int64_t arenaTensors = 0;
        int64_t heapTensors = 0;
    };

    std::vector<Tensor> runOne(const std::vector<Tensor> &inputs,
                               std::vector<double> &node_us,
                               RequestMemory &mem,
                               const ParallelRegion *par = nullptr);

    const Graph &g_;
    ThreadPool &pool_;
    std::shared_ptr<EnginePlan> plan_;
    const Backend &backend_;
    IntraOpMode intraop_ = IntraOpMode::Auto;

    RuntimeProfile profile_;
};

}  // namespace ngb

#endif  // NGB_RUNTIME_BATCH_DRIVER_H
