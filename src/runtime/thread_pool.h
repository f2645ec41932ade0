#ifndef NGB_RUNTIME_THREAD_POOL_H
#define NGB_RUNTIME_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ngb {

/**
 * Resolve a requested worker count to an actual one: positive values
 * pass through, zero / negative mean "use the hardware", and a host
 * that reports hardware_concurrency() == 0 (permitted by the standard)
 * still gets one worker. Every pool-sizing path — ThreadPool itself,
 * the CLI, the serving layer's engine keys — goes through this so a
 * pool can never end up empty.
 */
int resolveThreads(int requested);

/**
 * A work-stealing thread pool for data-parallel node dispatch.
 *
 * The pool owns threads()-1 background workers; the thread that calls
 * parallelFor() participates as worker 0, so a pool of size 1 degrades
 * to plain serial execution with no synchronization overhead beyond a
 * function call. Tasks are dealt round-robin into per-worker deques;
 * each worker drains its own deque from the front and steals from the
 * back of its neighbours' when empty — the classic Cilk/TBB shape that
 * keeps hot tasks local and migrates work only under imbalance.
 *
 * parallelFor() is a blocking fork-join region. Nesting is safe but
 * degenerate by design: a parallelFor() issued from INSIDE a pool task
 * (an intra-op region launched by a kernel that is itself a wavefront
 * task) runs its iterations inline on the calling worker — no second
 * fork-join is set up, so there is no deadlock, no oversubscription,
 * and no double-counting of WorkerStats (the enclosing task's timer is
 * already running). Exceptions thrown by tasks are captured and the
 * first one is rethrown on the calling thread after the region
 * completes, so a throwing kernel cannot deadlock the pool.
 */
class ThreadPool
{
  public:
    struct WorkerStats {
        double busyUs = 0;    ///< time spent inside tasks
        int64_t tasks = 0;    ///< tasks executed
        int64_t steals = 0;   ///< tasks obtained from another worker
    };

    /** @p threads total workers; 0 picks hardware_concurrency. */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threads() const { return static_cast<int>(queues_.size()); }

    /**
     * Execute @p fn(index, workerId) for every index in [0, n).
     * Blocks until all tasks finish. workerId in [0, threads()).
     */
    void parallelFor(size_t n, const std::function<void(size_t, int)> &fn);

    /** Per-worker counters accumulated since the last drain. */
    std::vector<WorkerStats> drainStats();

    /**
     * Size every worker's scratch arena (tensor/scratch.h) to the
     * process-wide scratch high-water mark, when that mark rose since
     * the last call. Arenas otherwise grow on the thread that first
     * runs a demanding node, and work stealing decides which thread
     * that is — a cold worker would allocate in a steady-state round
     * long after warm-up. The drivers call this after each fork-join;
     * it allocates only when a new peak was seen. A no-op inside a
     * task.
     */
    void presizeScratch();

    /**
     * True while the calling thread is inside a parallelFor task of
     * ANY pool (thread-local, not per-pool). Nested parallelFor calls
     * consult this to degrade to inline execution.
     */
    static bool inTask();

    /**
     * The worker slot the calling thread occupies in the region it is
     * currently executing a task for, or -1 outside any task.
     */
    static int currentWorker();

  private:
    struct Queue {
        std::mutex mutex;
        std::deque<size_t> tasks;
        bool pinned = false;  ///< tasks are for this worker only
        WorkerStats stats;
    };

    void workerLoop(int id);
    void workUntilDrained(int id);
    bool popTask(int id, size_t &task, bool &stolen);

    /** The fork-join core of parallelFor. @p pinned deals task i to
     *  worker i and disables stealing, so each worker runs its own. */
    void runRegion(size_t n, const std::function<void(size_t, int)> &fn,
                   bool pinned);

    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::thread> workers_;

    const std::function<void(size_t, int)> *fn_ = nullptr;
    int64_t scratchSized_ = 0;  ///< bytes presizeScratch last set
    std::atomic<size_t> remaining_{0};
    std::atomic<uint64_t> epoch_{0};
    bool stop_ = false;

    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
    std::mutex doneMutex_;
    std::condition_variable doneCv_;

    std::mutex errorMutex_;
    std::exception_ptr error_;
};

}  // namespace ngb

#endif  // NGB_RUNTIME_THREAD_POOL_H
