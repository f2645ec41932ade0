#include "obs/perf.h"

#include "platform/env.h"

namespace ngb {
namespace obs {

namespace detail {

std::atomic<bool> g_perfEnabled{platform::envFlag("NGB_PERF")};

}  // namespace detail

void
setPerfEnabled(bool on)
{
    detail::g_perfEnabled.store(on, std::memory_order_relaxed);
}

perf::CounterValues
counterDelta(const perf::CounterValues &a, const perf::CounterValues &b)
{
    auto sub = [](uint64_t hi, uint64_t lo) {
        return hi > lo ? hi - lo : 0;
    };
    perf::CounterValues d;
    d.cycles = sub(b.cycles, a.cycles);
    d.instructions = sub(b.instructions, a.instructions);
    d.cacheMisses = sub(b.cacheMisses, a.cacheMisses);
    d.branchMisses = sub(b.branchMisses, a.branchMisses);
    d.timeEnabledNs = sub(b.timeEnabledNs, a.timeEnabledNs);
    d.timeRunningNs = sub(b.timeRunningNs, a.timeRunningNs);
    d.measured = a.measured && b.measured;
    return d;
}

PerfCounterStats
PerfCounterStats::since(const PerfCounterStats &t0,
                        const PerfCounterStats &t1)
{
    auto sub = [](uint64_t hi, uint64_t lo) {
        return hi > lo ? hi - lo : 0;
    };
    auto subBucket = [&](const Bucket &b1, const Bucket &b0) {
        Bucket d;
        d.cycles = sub(b1.cycles, b0.cycles);
        d.instructions = sub(b1.instructions, b0.instructions);
        d.cacheMisses = sub(b1.cacheMisses, b0.cacheMisses);
        d.branchMisses = sub(b1.branchMisses, b0.branchMisses);
        d.scopes = sub(b1.scopes, b0.scopes);
        return d;
    };
    PerfCounterStats d;
    d.enabled = t1.enabled;
    d.measured = t1.measured;
    d.hwCounters = t1.hwCounters;
    d.status = t1.status;
    d.total = subBucket(t1.total, t0.total);
    for (size_t c = 0; c < kPerfCategories; ++c)
        d.byCategory[c] = subBucket(t1.byCategory[c], t0.byCategory[c]);
    return d;
}

namespace {

/**
 * The calling thread's counter group, opened lazily on the thread's
 * first scope so only threads that actually measure pay for fds.
 */
perf::PerfGroup &
threadGroup()
{
    thread_local perf::PerfGroup group;
    return group;
}

thread_local void *t_bucket = nullptr;

}  // namespace

PerfAggregator &
PerfAggregator::instance()
{
    // Leaked on purpose (same lifetime contract as the Tracer):
    // threads may accumulate until process exit.
    static PerfAggregator *a = new PerfAggregator();
    return *a;
}

PerfAggregator::ThreadBucket &
PerfAggregator::threadBucket()
{
    if (t_bucket == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        buckets_.push_back(std::make_unique<ThreadBucket>());
        t_bucket = buckets_.back().get();
    }
    return *static_cast<ThreadBucket *>(t_bucket);
}

void
PerfAggregator::accumulate(int category, const perf::CounterValues &d)
{
    if (category < 0 ||
        static_cast<size_t>(category) >= kPerfCategories)
        return;
    ThreadBucket &b = threadBucket();
    std::atomic<uint64_t> *row = b.v[category];
    // Clock-fallback deltas carry no counts: the scope still counts
    // (so reports can say "N scopes, counters unavailable") but the
    // zeros never dilute a partially-available session's ratios.
    if (d.measured) {
        row[0].fetch_add(d.cycles, std::memory_order_relaxed);
        row[1].fetch_add(d.instructions, std::memory_order_relaxed);
        row[2].fetch_add(d.cacheMisses, std::memory_order_relaxed);
        row[3].fetch_add(d.branchMisses, std::memory_order_relaxed);
    }
    row[4].fetch_add(1, std::memory_order_relaxed);
}

PerfCounterStats
PerfAggregator::totals() const
{
    PerfCounterStats s;
    s.enabled = perfEnabled();
    const perf::PerfStatus &st = perf::perfStatus();
    s.measured = st.available;
    s.hwCounters = st.counters;
    s.status = st.detail;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &b : buckets_) {
        for (size_t c = 0; c < kPerfCategories; ++c) {
            const std::atomic<uint64_t> *row = b->v[c];
            PerfCounterStats::Bucket &out = s.byCategory[c];
            out.cycles += row[0].load(std::memory_order_relaxed);
            out.instructions += row[1].load(std::memory_order_relaxed);
            out.cacheMisses += row[2].load(std::memory_order_relaxed);
            out.branchMisses += row[3].load(std::memory_order_relaxed);
            out.scopes += row[4].load(std::memory_order_relaxed);
        }
    }
    for (const PerfCounterStats::Bucket &c : s.byCategory) {
        s.total.cycles += c.cycles;
        s.total.instructions += c.instructions;
        s.total.cacheMisses += c.cacheMisses;
        s.total.branchMisses += c.branchMisses;
        s.total.scopes += c.scopes;
    }
    return s;
}

void
PerfAggregator::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &b : buckets_)
        for (size_t c = 0; c < kPerfCategories; ++c)
            for (int i = 0; i < 5; ++i)
                b->v[c][i].store(0, std::memory_order_relaxed);
}

CounterScope::CounterScope(SpanEvent *span, int category)
    : armed_(perfEnabled()), span_(span), category_(category)
{
    if (armed_)
        start_ = threadGroup().read();
}

CounterScope::~CounterScope()
{
    if (!armed_)
        return;
    perf::CounterValues d = counterDelta(start_, threadGroup().read());
    if (span_ != nullptr) {
        span_->hasCounters = true;
        span_->countersMeasured = d.measured;
        span_->cCycles = d.cycles;
        span_->cInstr = d.instructions;
        span_->cCacheMiss = d.cacheMisses;
        span_->cBranchMiss = d.branchMisses;
    }
    if (category_ >= 0)
        PerfAggregator::instance().accumulate(category_, d);
}

}  // namespace obs
}  // namespace ngb
