#include "runtime/thread_pool.h"

#include "obs/trace.h"
#include "runtime/runtime_profile.h"
#include "tensor/scratch.h"

namespace ngb {

namespace {

/**
 * Nesting detection is thread-local rather than per-pool: a task is a
 * task no matter which pool dealt it, and an intra-op region must
 * degrade to inline execution even if it targets a different pool
 * than the one whose task is running (oversubscription is about the
 * thread, not the pool).
 */
thread_local int t_taskDepth = 0;
thread_local int t_workerId = -1;

/** RAII "this thread is executing task work for worker @p id". */
struct TaskScope {
    explicit TaskScope(int id) : saved(t_workerId)
    {
        t_workerId = id;
        ++t_taskDepth;
    }
    ~TaskScope()
    {
        --t_taskDepth;
        t_workerId = saved;
    }
    int saved;
};

}  // namespace

bool
ThreadPool::inTask()
{
    return t_taskDepth > 0;
}

int
ThreadPool::currentWorker()
{
    return t_workerId;
}

int
resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads)
{
    threads = resolveThreads(threads);
    queues_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i)
        queues_.push_back(std::make_unique<Queue>());
    // Worker 0 is the calling thread; spawn the rest.
    workers_.reserve(static_cast<size_t>(threads - 1));
    for (int i = 1; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::workerLoop(int id)
{
    obs::Tracer::instance().setThreadName("worker-" +
                                          std::to_string(id));
    uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(wakeMutex_);
            wakeCv_.wait(lock, [&] {
                return stop_ || epoch_.load(std::memory_order_acquire) != seen;
            });
            if (stop_)
                return;
            seen = epoch_.load(std::memory_order_acquire);
        }
        workUntilDrained(id);
    }
}

bool
ThreadPool::popTask(int id, size_t &task, bool &stolen)
{
    // Own queue first (front: locality), then steal from the back of
    // the others, scanning ring-wise from our right neighbour.
    {
        Queue &q = *queues_[static_cast<size_t>(id)];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.tasks.empty()) {
            task = q.tasks.front();
            q.tasks.pop_front();
            stolen = false;
            return true;
        }
    }
    int n = threads();
    for (int d = 1; d < n; ++d) {
        Queue &q = *queues_[static_cast<size_t>((id + d) % n)];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.tasks.empty() && !q.pinned) {
            task = q.tasks.back();
            q.tasks.pop_back();
            stolen = true;
            return true;
        }
    }
    return false;
}

void
ThreadPool::workUntilDrained(int id)
{
    Queue &own = *queues_[static_cast<size_t>(id)];
    while (remaining_.load(std::memory_order_acquire) > 0) {
        size_t task;
        bool stolen = false;
        if (!popTask(id, task, stolen))
            return;  // stragglers are being finished by their owners
        auto t0 = std::chrono::steady_clock::now();
        try {
            TaskScope scope(id);
            (*fn_)(task, id);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex_);
            if (!error_)
                error_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(own.mutex);
            own.stats.busyUs += elapsedUsSince(t0);
            ++own.stats.tasks;
            own.stats.steals += stolen;
        }
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(doneMutex_);
            doneCv_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t, int)> &fn)
{
    if (n == 0)
        return;
    if (t_taskDepth > 0) {
        // Nested region: this thread is already executing a pool task
        // (its region's fn_/remaining_ are live, and blocking here
        // would deadlock a same-pool join). Run the iterations inline
        // on the enclosing task's worker slot — no stats, since the
        // enclosing task's busy timer is already running.
        int id = t_workerId >= 0 ? t_workerId : 0;
        for (size_t i = 0; i < n; ++i)
            fn(i, id);
        return;
    }
    int workers = threads();
    if (workers == 1 || n == 1) {
        // Serial fast path on the calling thread.
        Queue &own = *queues_[0];
        for (size_t i = 0; i < n; ++i) {
            auto t0 = std::chrono::steady_clock::now();
            {
                TaskScope scope(0);
                fn(i, 0);
            }
            own.stats.busyUs += elapsedUsSince(t0);
            ++own.stats.tasks;
        }
        return;
    }

    runRegion(n, fn, false);
}

void
ThreadPool::runRegion(size_t n, const std::function<void(size_t, int)> &fn,
                      bool pinned)
{
    int workers = threads();
    fn_ = &fn;
    // The count goes up BEFORE any task is visible: a worker still
    // looping on the previous region may pop one of these tasks the
    // moment it is dealt, and its decrement must land on this count —
    // storing the count afterwards would overwrite that decrement and
    // the join below would wait forever.
    remaining_.store(n, std::memory_order_release);
    // Deal tasks round-robin so each worker starts with a local run of
    // indices; stealing rebalances the tail.
    for (int w = 0; w < workers; ++w) {
        Queue &q = *queues_[static_cast<size_t>(w)];
        std::lock_guard<std::mutex> lock(q.mutex);
        q.pinned = pinned;
        for (size_t i = static_cast<size_t>(w); i < n;
             i += static_cast<size_t>(workers))
            q.tasks.push_back(i);
    }
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        epoch_.fetch_add(1, std::memory_order_acq_rel);
    }
    wakeCv_.notify_all();

    workUntilDrained(0);
    {
        std::unique_lock<std::mutex> lock(doneMutex_);
        doneCv_.wait(lock, [&] {
            return remaining_.load(std::memory_order_acquire) == 0;
        });
    }
    fn_ = nullptr;

    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lock(errorMutex_);
        err = error_;
        error_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
ThreadPool::presizeScratch()
{
    const int64_t peak = ScratchArena::globalHighWaterBytes();
    if (peak <= scratchSized_ || t_taskDepth > 0)
        return;
    scratchSized_ = peak;
    auto reserve = [peak](size_t, int) {
        ScratchArena::local().reserve(peak);
    };
    if (threads() == 1)
        reserve(0, 0);
    else
        runRegion(static_cast<size_t>(threads()), reserve, true);
}

std::vector<ThreadPool::WorkerStats>
ThreadPool::drainStats()
{
    std::vector<WorkerStats> out;
    out.reserve(queues_.size());
    for (auto &qp : queues_) {
        std::lock_guard<std::mutex> lock(qp->mutex);
        out.push_back(qp->stats);
        qp->stats = WorkerStats();
    }
    return out;
}

}  // namespace ngb
