#ifndef NGB_PERFBENCH_HARNESS_H
#define NGB_PERFBENCH_HARNESS_H

/**
 * @file
 * The benchmark's own helpers: percentiles with their support rule,
 * seeded request plans, open-loop replay stamped from due time,
 * bit-exact output comparison for the correctness oracle, and an in-memory
 * span log for the traced run. None of this reaches into the library;
 * it only uses the public load-generation primitives.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "serve/load_gen.h"
#include "tensor/tensor.h"

namespace ngb {
namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Samples that must lie strictly beyond a reported percentile. */
constexpr size_t kSamplesBeyond = 10;

/**
 * Nearest-rank percentile @p q (0 < q <= 100) of @p samples; 0 when
 * empty. Takes a copy because it sorts.
 */
double percentile(std::vector<double> samples, double q);

/**
 * True when at least kSamplesBeyond of @p n samples lie beyond the
 * nearest-rank @p q-th percentile, so the tail is measured rather
 * than a single outlier.
 */
bool percentileSupported(size_t n, double q);

/** Highest whole percentile that @p n samples support (0 if none). */
int highestSupportedPercentile(size_t n);

double median(std::vector<double> samples);

/** Samples a reporting window must hold: p90 needs kSamplesBeyond. */
constexpr size_t kWindowSamples = 100;

/**
 * Window of pass @p pass when @p nPasses passes of @p passSize
 * samples are cut into windows of whole passes holding at least
 * kWindowSamples samples; a short remainder joins the last window.
 * Metrics are taken per window and reported as the median over
 * windows, so a few seconds of CPU stolen by a shared host move one
 * window, not the result.
 */
size_t windowOfPass(size_t pass, size_t nPasses, size_t passSize);

/** One request of a closed-loop or offline pass. */
struct PlannedRequest {
    std::string model;
    uint64_t seed = 0;  ///< input seed for makeRequestInputs
};

/**
 * A fixed, seeded pass: entry e of @p counts contributes exactly
 * e.weight requests of e.model, in a seeded shuffle. Exact counts
 * (not weighted draws) keep every seed's latency distribution built
 * from the same number of requests per model. Input seeds come from
 * serve::requestSeed(@p seed, @p stream, position).
 */
std::vector<PlannedRequest> seededPass(const std::vector<serve::MixEntry> &counts,
                                       uint64_t seed, uint64_t stream);

/**
 * An open-loop schedule of exactly round(@p rps * @p durationS)
 * arrivals: serve::poissonTrace's arrival times conditioned on that
 * count (scaled so the next arrival would fall at @p durationS), with
 * exact per-model counts from the @p mix weights in a seeded order,
 * and input seeds folded onto @p inputPool distinct values so the
 * oracle replays a bounded number of requests. Fixing the count and
 * the mix keeps the offered load the same for every seed; only the
 * burst pattern varies.
 */
std::vector<serve::TraceEvent>
openLoopTrace(const std::vector<serve::MixEntry> &mix, double rps,
              double durationS, uint64_t seed, uint64_t inputPool);

/**
 * Replay an open-loop schedule: for each @p dueUs offset from @p t0,
 * sleep until due, then call @p issue(i, due). Returns how late each
 * call started (ms), which includes time a previous issue() spent
 * blocked. Requests are timed from @p due, never from the call, so a
 * stalled generator cannot hide the queueing it causes.
 */
std::vector<double>
replayOnSchedule(const std::vector<double> &dueUs, Clock::time_point t0,
                 const std::function<void(size_t, Clock::time_point)> &issue);

double msBetween(Clock::time_point from, Clock::time_point to);

/**
 * True when @p a and @p b have the same shapes, dtypes and element bit
 * patterns. Contiguous F32/I32/I8 tensors compare with memcmp, so a
 * response can be checked on the serving thread for a few
 * microseconds; anything else goes through bitDifference.
 */
bool sameBits(const std::vector<Tensor> &a, const std::vector<Tensor> &b);

/** This process's peak resident set (VmHWM) in MiB; 0 if unreadable. */
double peakRssMiB();

/**
 * Remove every NGB_* variable from the environment. Returns the names
 * removed. The library latches several of them in static
 * initializers, so a caller that finds any must re-exec itself.
 */
std::vector<std::string> scrubNgbEnvironment();

/** One span the benchmark records around a call into a layer. */
struct Span {
    std::string name;
    uint64_t traceId = 0;  ///< request id + 1; 0 = session scoped
    uint64_t parent = 0;   ///< index + 1 of the causing span; 0 = root
    double startUs = 0;    ///< since the log's epoch
    double durUs = 0;
};

/** Thread-safe in-memory span log, written out when the run ends. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    /** Record [start, end) and return its id (index + 1). */
    uint64_t record(const std::string &name, Clock::time_point start,
                    Clock::time_point end, uint64_t traceId = 0,
                    uint64_t parent = 0);

    /** Chrome trace-event JSON; false when the file cannot be written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

}  // namespace perfbench
}  // namespace ngb

#endif  // NGB_PERFBENCH_HARNESS_H
