#ifndef NGB_TENSOR_SCRATCH_H
#define NGB_TENSOR_SCRATCH_H

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

/**
 * @file
 * Per-thread bump-allocated scratch memory for kernel-internal
 * temporaries (im2col patch matrices, contiguous/F32 input
 * materializations, packed operand copies).
 *
 * Kernel temporaries die inside the kernel call that made them, so
 * they do not need their own heap allocations: the executors open a
 * ScratchScope around each node evaluation, temporaries bump-allocate
 * from a thread-local arena, and the scope's destructor hands the
 * bytes back. The arena grows to the peak per-node demand during the
 * first requests and then stops allocating — together with the
 * planned output arenas this is what makes the steady-state serving
 * loop perform zero tensor mallocs.
 *
 * Discipline: a tensor allocated from scratch must NOT escape the
 * enclosing ScratchScope — its bytes are reused by the next scope.
 * Escapes are caught by the poison leg: with $NGB_POISON=1 the scope
 * destructor repoisons the released range, so a stale scratch view
 * reads 0xA5 garbage and fails the bit-identity suites loudly.
 * isScratch() lets holders of a maybe-scratch tensor (the fused-chain
 * interpreter) detect and copy out before escaping.
 */

namespace ngb {

/** The calling thread's scratch arena. */
class ScratchArena
{
  public:
    /** Bump position (restored by ScratchScope on unwind). */
    struct Mark {
        size_t block = 0;
        size_t offset = 0;
    };

    static ScratchArena &local();

    /** True when at least one ScratchScope is open on this thread. */
    bool active() const { return depth_ > 0; }

    /**
     * Bump-allocate an uninitialized contiguous tensor. Grows the
     * arena (one heap block) when the current blocks cannot hold the
     * request; steady state allocates nothing.
     */
    Tensor alloc(const Shape &shape, DType dtype);

    /** True when @p t 's bytes live inside this thread's arena. */
    bool owns(const Tensor &t) const;

    /** Bytes currently reserved across this thread's blocks. */
    int64_t reservedBytes() const;

    /**
     * Make sure one block of at least @p bytes exists, replacing the
     * current (smaller) blocks with it. Any node whose temporaries
     * peaked at @p bytes of in-use scratch on some thread then fits
     * here without growing. A no-op while a scope is open.
     */
    void reserve(int64_t bytes);

    /** This thread's peak in-use bytes. */
    int64_t highWaterBytes() const { return high_water_; }

    /** Max highWaterBytes() across every thread (updated on scope exit). */
    static int64_t globalHighWaterBytes();

    /**
     * Sum of highWaterBytes() across every thread that ever opened a
     * scope — the aggregate footprint intra-op sharding pays for its
     * per-worker pack panels (each worker arena peaks independently,
     * so the sum, not the max, is what resident memory sees).
     */
    static int64_t globalHighWaterSumBytes();

  private:
    friend class ScratchScope;

    Mark mark() const { return {cur_, off_}; }
    void reset(const Mark &m);
    int64_t inUseBytes() const;

    std::vector<std::shared_ptr<Storage>> blocks_;
    size_t cur_ = 0;    ///< block currently bumping
    size_t off_ = 0;    ///< bump offset inside blocks_[cur_]
    int depth_ = 0;     ///< open-scope count
    int64_t high_water_ = 0;
};

/**
 * RAII scope: temporaries allocated while the scope is open are
 * reclaimed (and repoisoned under $NGB_POISON) when it closes. Scopes
 * nest; an inner scope only reclaims its own allocations.
 */
class ScratchScope
{
  public:
    ScratchScope();
    ~ScratchScope();

    ScratchScope(const ScratchScope &) = delete;
    ScratchScope &operator=(const ScratchScope &) = delete;

  private:
    ScratchArena::Mark mark_;
};

/**
 * An uninitialized contiguous tensor from the thread's scratch arena
 * when a ScratchScope is open, else a plain heap tensor (so kernels
 * stay callable outside an executor).
 */
Tensor scratchEmpty(const Shape &shape, DType dtype = DType::F32);

/** True when @p t is backed by the calling thread's scratch arena. */
bool isScratch(const Tensor &t);

/**
 * @p t itself when it is already contiguous F32, else a contiguous
 * F32 materialization in scratch. The zero-copy replacement for the
 * contiguous().to(F32) kernel preamble; read-only use, may alias @p t.
 */
Tensor toContiguousF32(const Tensor &t);

/** @p t itself when contiguous, else a same-dtype copy in scratch. */
Tensor toContiguous(const Tensor &t);

}  // namespace ngb

#endif  // NGB_TENSOR_SCRATCH_H
