#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/json_util.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "platform/env.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"

namespace ngb {
namespace obs {

namespace detail {

std::atomic<bool> g_metricsEnabled{platform::envFlag("NGB_METRICS")};

}  // namespace detail

void
setMetricsEnabled(bool on)
{
    detail::g_metricsEnabled.store(on, std::memory_order_relaxed);
}

// -- Histogram ---------------------------------------------------------

int
Histogram::bucketOf(double v)
{
    if (!(v > 0))
        return 0;  // <= 0 (and NaN) land in underflow
    int e;
    double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
    int octave = (e - 1) - kMinExp;
    if (octave < 0)
        return 0;
    if (octave >= kOctaves)
        return kBuckets - 1;
    // Position within the octave: log2(2m) in [0, 1).
    int sub = static_cast<int>(kSub * std::log2(2.0 * m));
    sub = std::min(std::max(sub, 0), kSub - 1);
    return 1 + octave * kSub + sub;
}

double
Histogram::bucketLo(int i)
{
    if (i <= 0)
        return 0;
    if (i >= kBuckets - 1)
        return std::ldexp(1.0, kMaxExp);
    return std::exp2(kMinExp + static_cast<double>(i - 1) / kSub);
}

double
Histogram::bucketHi(int i)
{
    if (i <= 0)
        return std::ldexp(1.0, kMinExp);
    if (i >= kBuckets - 1)
        return std::ldexp(1.0, kMaxExp);
    return std::exp2(kMinExp + static_cast<double>(i) / kSub);
}

namespace {

void
atomicAddDouble(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + v,
                                    std::memory_order_relaxed)) {
    }
}

void
atomicMinDouble(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void
atomicMaxDouble(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

}  // namespace

void
Histogram::observe(double v)
{
    if (std::isnan(v))
        return;
    counts_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    int64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(sum_, v);
    if (prev == 0) {
        // First observation seeds min/max; racing observers fix any
        // momentary zero through the min/max CAS below.
        min_.store(v, std::memory_order_relaxed);
        max_.store(v, std::memory_order_relaxed);
    }
    atomicMinDouble(min_, v);
    atomicMaxDouble(max_, v);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot s;
    for (int i = 0; i < kBuckets; ++i)
        s.counts[i] = counts_[i].load(std::memory_order_relaxed);
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
}

double
Histogram::Snapshot::percentile(double q) const
{
    // Bucket totals, not `count`, define the population: a mid-run
    // snapshot can catch `count` ahead of (or behind) the buckets.
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0;
    // The extreme quantiles are exact: min/max are tracked scalars,
    // not bucket estimates.
    if (q <= 0)
        return min;
    if (q >= 1)
        return max;
    q = std::min(std::max(q, 0.0), 1.0);
    double target = q * static_cast<double>(total - 1) + 1;
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        if (counts[i] == 0)
            continue;
        if (static_cast<double>(seen + counts[i]) >= target) {
            double lo = bucketLo(i);
            double hi = bucketHi(i);
            // Clamp the edge buckets to observed extremes so p0/p100
            // report real values rather than bucket bounds.
            lo = std::max(lo, min);
            hi = std::min(hi, max);
            if (hi <= lo)
                return lo;
            double within =
                (target - static_cast<double>(seen)) / counts[i];
            return lo + (hi - lo) * std::min(within, 1.0);
        }
        seen += counts[i];
    }
    return max;
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

// -- MetricsRegistry ---------------------------------------------------

MetricsRegistry &
MetricsRegistry::instance()
{
    // Leaked on purpose: call sites hold instrument references that
    // must stay valid through static destruction.
    static MetricsRegistry *r = new MetricsRegistry();
    return *r;
}

MetricsRegistry::MetricsRegistry()
{
    // Externally-owned levels, re-homed onto the registry as callback
    // gauges: sampled per snapshot, zero cost on their hot paths.
    providers_["tensor.heap_alloc_count"] = [] {
        return static_cast<int64_t>(Storage::heapAllocCount());
    };
    providers_["tensor.heap_alloc_bytes"] = [] {
        return static_cast<int64_t>(Storage::heapAllocBytes());
    };
    providers_["tensor.live_bytes"] = [] { return Storage::liveBytes(); };
    providers_["tensor.peak_live_bytes"] = [] {
        return Storage::peakLiveBytes();
    };
    providers_["scratch.high_water_bytes"] = [] {
        return ScratchArena::globalHighWaterBytes();
    };
    // Spans lost to ring wrap-around: nonzero means the exported
    // trace under-reports and scrapers should widen the ring.
    providers_["trace.dropped_spans"] = [] {
        return static_cast<int64_t>(Tracer::instance().totalDropped());
    };
    // Cumulative hardware-counter totals from kernel CounterScopes
    // (all zero when --perf is off or counters are unavailable).
    providers_["perf.cycles"] = [] {
        return static_cast<int64_t>(
            PerfAggregator::instance().totals().total.cycles);
    };
    providers_["perf.instructions"] = [] {
        return static_cast<int64_t>(
            PerfAggregator::instance().totals().total.instructions);
    };
    providers_["perf.llc_misses"] = [] {
        return static_cast<int64_t>(
            PerfAggregator::instance().totals().total.cacheMisses);
    };
    providers_["perf.branch_misses"] = [] {
        return static_cast<int64_t>(
            PerfAggregator::instance().totals().total.branchMisses);
    };
    providers_["perf.kernel_scopes"] = [] {
        return static_cast<int64_t>(
            PerfAggregator::instance().totals().total.scopes);
    };
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

void
MetricsRegistry::gaugeFn(const std::string &name,
                         std::function<int64_t()> fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    providers_[name] = std::move(fn);
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &kv : counters_) {
        os << (first ? "\n" : ",\n") << "    " << jsonQuote(kv.first)
           << ": " << kv.second->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &kv : gauges_) {
        os << (first ? "\n" : ",\n") << "    " << jsonQuote(kv.first)
           << ": " << kv.second->value();
        first = false;
    }
    for (const auto &kv : providers_) {
        os << (first ? "\n" : ",\n") << "    " << jsonQuote(kv.first)
           << ": " << kv.second();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto &kv : histograms_) {
        Histogram::Snapshot s = kv.second->snapshot();
        JsonDict d;
        d.add("count", s.count);
        d.add("sum", s.sum);
        d.add("mean", s.mean());
        d.add("min", s.min);
        d.add("max", s.max);
        d.add("p50", s.percentile(0.50));
        d.add("p90", s.percentile(0.90));
        d.add("p95", s.percentile(0.95));
        d.add("p99", s.percentile(0.99));
        os << (first ? "\n" : ",\n") << "    " << jsonQuote(kv.first)
           << ": " << d.str();
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

namespace {

std::string
promName(const std::string &name)
{
    std::string out = "ngb_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_';
        if (c >= 'A' && c <= 'Z') {
            out += static_cast<char>(c - 'A' + 'a');
        } else {
            out += ok ? c : '_';
        }
    }
    return out;
}

}  // namespace

void
MetricsRegistry::writePrometheus(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &kv : counters_) {
        std::string n = promName(kv.first);
        os << "# TYPE " << n << " counter\n"
           << n << " " << kv.second->value() << "\n";
    }
    for (const auto &kv : gauges_) {
        std::string n = promName(kv.first);
        os << "# TYPE " << n << " gauge\n"
           << n << " " << kv.second->value() << "\n";
    }
    for (const auto &kv : providers_) {
        std::string n = promName(kv.first);
        os << "# TYPE " << n << " gauge\n"
           << n << " " << kv.second() << "\n";
    }
    for (const auto &kv : histograms_) {
        std::string n = promName(kv.first);
        Histogram::Snapshot s = kv.second->snapshot();
        os << "# TYPE " << n << " summary\n";
        for (double q : {0.5, 0.9, 0.95, 0.99}) {
            os << n << "{quantile=\"" << jsonNumber(q, 2) << "\"} "
               << jsonNumber(s.percentile(q)) << "\n";
        }
        os << n << "_sum " << jsonNumber(s.sum) << "\n"
           << n << "_count " << s.count << "\n";
    }
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &kv : counters_)
        kv.second->reset();
    for (auto &kv : gauges_)
        kv.second->reset();
    for (auto &kv : histograms_)
        kv.second->reset();
}

}  // namespace obs
}  // namespace ngb
