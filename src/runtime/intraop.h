#ifndef NGB_RUNTIME_INTRAOP_H
#define NGB_RUNTIME_INTRAOP_H

#include <cstddef>
#include <functional>
#include <string>

#include "runtime/thread_pool.h"

/**
 * @file
 * Intra-op parallelism: the ParallelRegion seam kernels shard work
 * through, and the on/off/auto mode the hybrid scheduler consults.
 *
 * A kernel receives a region through KernelContext::par. A null
 * pointer (the default everywhere) means "serial": kernels must run
 * their unchanged single-thread code path. A non-null region lends
 * the kernel the pool's workers for the duration of one run() call —
 * a blocking fork-join over shards.
 *
 * Determinism contract: regions shard ITERATION SPACE, never
 * reductions. A GEMM may split M or N (each output element is still
 * produced by exactly one shard, with its full k-ascending
 * accumulator chain); it must never split K. Under that rule every
 * thread count produces bit-identical outputs, which the differential
 * suite in tests/intraop_test.cc enforces over the whole registry.
 */

namespace ngb {

/** How the executor hands pool threads to kernels. */
enum class IntraOpMode {
    Off,   ///< never: kernels always run serial (pre-intra-op shape)
    On,    ///< whenever a level is narrower than the pool
    Auto,  ///< cost model picks wide (inter-node) vs deep (intra-op)
};

/**
 * $NGB_INTRAOP through parseIntraOpMode, plus the aliases "0" (Off)
 * and "1" (On); unset or "" is Auto. Throws on any other value.
 */
IntraOpMode intraOpModeFromEnv();

/** Parse "on"/"off"/"auto" (throws std::runtime_error otherwise). */
IntraOpMode parseIntraOpMode(const std::string &s);

const char *intraOpModeName(IntraOpMode m);

/**
 * A borrowed slice of the thread pool a kernel may shard work across.
 * Inert when constructed without a pool: run() degrades to a serial
 * loop, so kernels can be written against the region unconditionally.
 *
 * run() is safe to call from inside a wavefront task: the pool's
 * nesting guard runs the shards inline on the calling worker (no
 * deadlock, no oversubscription). Each shard executes under the
 * launching request's trace id, inside its own Shard child span and
 * its own ScratchScope (per-worker pack buffers release on shard
 * exit).
 */
class ParallelRegion
{
  public:
    explicit ParallelRegion(ThreadPool *pool = nullptr) : pool_(pool) {}

    /** Workers available to run(); 1 when inert. */
    int threads() const { return pool_ ? pool_->threads() : 1; }

    /**
     * Execute @p fn(shard, worker) for every shard in [0, nShards),
     * blocking until all complete. Shards may run on any pool worker
     * (worker in [0, threads())); a given shard runs exactly once.
     */
    void run(size_t nShards,
             const std::function<void(size_t, int)> &fn) const;

  private:
    ThreadPool *pool_;
};

}  // namespace ngb

#endif  // NGB_RUNTIME_INTRAOP_H
