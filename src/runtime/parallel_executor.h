#ifndef NGB_RUNTIME_PARALLEL_EXECUTOR_H
#define NGB_RUNTIME_PARALLEL_EXECUTOR_H

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
 * Wavefront-parallel graph execution on a work-stealing thread pool.
 *
 * Dispatches each dependency level of a Schedule as one fork-join
 * region: all nodes of a level are independent by construction, so
 * they run concurrently and write disjoint result slots (no locking
 * on the hot path). Kernels come from the same pluggable Backend the
 * serial Executor dispatches through, with the same deterministic
 * ParamStore, so outputs are bit-identical to an Executor running the
 * same backend, regardless of thread count or interleaving.
 *
 * Between levels the executor releases tensors whose last consumer
 * level has passed (the lifetimes the MemoryPlanner computes), so
 * resident activation memory tracks the live set instead of the whole
 * graph.
 *
 * The memory plan is EXECUTED rather than advisory: every planned
 * node output is bound to its offset inside a pooled arena block, so
 * a warmed-up run performs zero tensor mallocs and zero memsets.
 * Outputs are always returned as views into the block (clone() them
 * to retain them without pinning it); the pool recycles a block
 * automatically once the caller drops them. Results are bit-identical
 * to the heap-allocating serial Executor.
 *
 * Hybrid inter/intra-op scheduling: each level is dispatched either
 * WIDE (the fork-join above — one task per node, kernels serial) or
 * DEEP (nodes run sequentially on the dispatching thread, each with a
 * full-pool ParallelRegion so its GEMMs shard macro-tiles across the
 * workers). Wide wins when the level itself carries enough nodes to
 * fill the pool; deep wins on narrow levels — the residual-stream
 * trunk of a transformer — where wavefront parallelism has nothing to
 * fork. IntraOpMode::Off pins every level wide (the pre-intra-op
 * shape), On goes deep whenever a level is narrower than the pool,
 * and Auto asks a per-level cost model (see deepLevels_ in the ctor).
 * The choice never affects results: kernels are bit-identical at any
 * thread count by the ParallelRegion determinism contract.
 */
class ParallelExecutor
{
  public:
    /** Uses an internally built wavefront schedule for @p g. */
    ParallelExecutor(const Graph &g, ThreadPool &pool,
                     const Backend &backend = defaultBackend(),
                     IntraOpMode intraop = intraOpModeFromEnv());

    ParallelExecutor(const Graph &g, Schedule sched, ThreadPool &pool,
                     const Backend &backend = defaultBackend(),
                     IntraOpMode intraop = intraOpModeFromEnv());

    /** Run the graph; same contract as Executor::run. */
    std::vector<Tensor> run(const std::vector<Tensor> &inputs);

    /** Measured timings of the last run(). */
    const RuntimeProfile &profile() const { return profile_; }

    const Schedule &schedule() const { return sched_; }
    const MemoryPlan &memoryPlan() const { return memplan_; }
    ParamStore &params() { return params_; }
    const Backend &backend() const { return backend_; }
    IntraOpMode intraOpMode() const { return intraop_; }

    /** Levels the hybrid scheduler resolved to deep (intra-op). */
    const std::vector<char> &deepLevels() const { return deepLevels_; }

  private:
    const Graph &g_;
    Schedule sched_;
    ThreadPool &pool_;
    const Backend &backend_;
    MemoryPlan memplan_;
    ParamStore params_;
    IntraOpMode intraop_ = IntraOpMode::Auto;
    ArenaPool arenaPool_;
    bool warmedUp_ = false;

    /** Per-level wide/deep decision (static: graph costs + pool width). */
    std::vector<char> deepLevels_;

    /** Node ids whose results can be dropped after each level. */
    std::vector<std::vector<int>> releaseAfterLevel_;

    RuntimeProfile profile_;
};

}  // namespace ngb

#endif  // NGB_RUNTIME_PARALLEL_EXECUTOR_H
