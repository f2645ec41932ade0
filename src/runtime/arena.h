#ifndef NGB_RUNTIME_ARENA_H
#define NGB_RUNTIME_ARENA_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ops/allocator.h"
#include "runtime/memory_planner.h"

/**
 * @file
 * Executable memory planning: the runtime-side allocator that turns a
 * MemoryPlan from decorative (release scheduling only) into the actual
 * owner of every intermediate byte.
 *
 * An ArenaAllocator binds one request's node outputs to their planned
 * offsets inside one arena block (a single Storage of plan.arenaBytes).
 * Blocks come from an ArenaPool that recycles them across requests:
 * a block is free again once nothing references it — callers simply
 * drop their output tensors, no explicit release call — so a
 * steady-state serving loop reuses a fixed set of blocks and performs
 * zero tensor mallocs.
 */

namespace ngb {

/**
 * Pool of interchangeable arena blocks, one in use per in-flight
 * request. acquire() hands back a block no live tensor references
 * (use_count == 1 means the pool holds the only reference; new
 * references are only minted through the pool, so the check cannot
 * race) or grows the pool by one block. Thread-safe.
 */
class ArenaPool
{
  public:
    ArenaPool() = default;

    /** Set the block size; must be called before acquire(). */
    void configure(int64_t bytes) { bytes_ = bytes; }

    int64_t blockBytes() const { return bytes_; }

    /**
     * A block with no outstanding references, allocating only when
     * every pooled block is still referenced by in-flight outputs.
     * Under $NGB_POISON each acquisition repoisons the block, so a
     * kernel reading a previous request's leftovers is caught.
     */
    std::shared_ptr<Storage> acquire();

    /** Blocks ever created (== peak concurrent block demand). */
    size_t blocks() const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<Storage>> blocks_;
    int64_t bytes_ = 0;
};

/**
 * Allocator binding one request's planned node outputs to their
 * MemoryPlan offsets inside one arena block. Unplanned values (and
 * anything when the plan reserved no bytes) fall back to the heap and
 * are counted. Stats use atomics: wavefront levels allocate from
 * many worker threads concurrently.
 */
class ArenaAllocator final : public Allocator
{
  public:
    ArenaAllocator(const MemoryPlan &plan, std::shared_ptr<Storage> block);

    Tensor allocate(const Node &n, size_t i) override;

    int64_t plannedOffset(const Node &n, size_t i) const override;

    const char *name() const override { return "arena"; }

    /** Outputs served at their planned arena offsets. */
    int64_t planned() const { return planned_.load(); }
    /** Outputs that fell back to the heap (unplanned values). */
    int64_t fallbacks() const { return fallbacks_.load(); }
    /** Highest arena byte actually bound (measured peak footprint). */
    int64_t boundPeakBytes() const { return bound_peak_.load(); }

  private:
    const MemoryPlan &plan_;
    std::shared_ptr<Storage> block_;
    std::atomic<int64_t> planned_{0};
    std::atomic<int64_t> fallbacks_{0};
    std::atomic<int64_t> bound_peak_{0};
};

}  // namespace ngb

#endif  // NGB_RUNTIME_ARENA_H
