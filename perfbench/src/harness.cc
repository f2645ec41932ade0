#include "harness.h"

#include "runtime/request_util.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <thread>
#include <unistd.h>

extern char **environ;

namespace ngb {
namespace perfbench {

namespace {

/** 1-based nearest rank of the @p q-th percentile among @p n samples. */
size_t
nearestRank(size_t n, double q)
{
    double r = std::ceil(q / 100.0 * static_cast<double>(n));
    return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

}  // namespace

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    size_t k = nearestRank(samples.size(), q) - 1;
    std::nth_element(samples.begin(), samples.begin() + k, samples.end());
    return samples[k];
}

bool
percentileSupported(size_t n, double q)
{
    return n > 0 && n - nearestRank(n, q) >= kSamplesBeyond;
}

int
highestSupportedPercentile(size_t n)
{
    for (int q = 99; q > 0; --q)
        if (percentileSupported(n, q))
            return q;
    return 0;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50);
}

size_t
windowOfPass(size_t pass, size_t nPasses, size_t passSize)
{
    size_t perWindow =
        std::max<size_t>(1, (kWindowSamples + passSize - 1) / passSize);
    size_t windows = std::max<size_t>(1, nPasses / perWindow);
    return std::min(pass / perWindow, windows - 1);
}

std::vector<PlannedRequest>
seededPass(const std::vector<serve::MixEntry> &counts, uint64_t seed,
           uint64_t stream)
{
    std::vector<PlannedRequest> pass;
    for (const serve::MixEntry &e : counts)
        for (int i = 0; i < static_cast<int>(e.weight); ++i)
            pass.push_back({e.model, 0});
    // Fisher-Yates on the splitmix64 stream: the same seed gives the
    // same order on every platform.
    uint64_t state = serve::requestSeed(seed, stream, ~0ull);
    for (size_t i = pass.size(); i > 1; --i)
        std::swap(pass[i - 1], pass[serve::nextRand(state) % i]);
    for (size_t i = 0; i < pass.size(); ++i)
        pass[i].seed = serve::requestSeed(seed, stream, i);
    return pass;
}

std::vector<serve::TraceEvent>
openLoopTrace(const std::vector<serve::MixEntry> &mix, double rps,
              double durationS, uint64_t seed, uint64_t inputPool)
{
    size_t n = static_cast<size_t>(std::llround(rps * durationS));
    // Twice the horizon holds n + 1 arrivals except with vanishing
    // probability; the (n+1)-th sets the time scale.
    std::vector<serve::TraceEvent> arrivals =
        serve::poissonTrace(mix, rps, 2 * durationS, seed);
    if (n == 0 || arrivals.size() <= n)
        throw std::runtime_error("openLoopTrace: too few arrivals");
    double scale = durationS * 1e6 / arrivals[n].atUs;

    double total = 0;
    for (const serve::MixEntry &e : mix)
        total += e.weight;
    std::vector<serve::MixEntry> counts;
    size_t assigned = 0;
    for (size_t i = 0; i < mix.size(); ++i) {
        size_t c = i + 1 < mix.size()
                       ? static_cast<size_t>(std::llround(
                             static_cast<double>(n) * mix[i].weight / total))
                       : n - assigned;
        assigned += c;
        counts.push_back({mix[i].model, static_cast<double>(c)});
    }
    std::vector<PlannedRequest> order = seededPass(counts, seed, 1);

    std::vector<serve::TraceEvent> trace(n);
    for (size_t i = 0; i < n; ++i) {
        trace[i].atUs = arrivals[i].atUs * scale;
        trace[i].model = order[i].model;
        trace[i].seed = serve::requestSeed(seed, 1, i % inputPool);
    }
    return trace;
}

std::vector<double>
replayOnSchedule(const std::vector<double> &dueUs, Clock::time_point t0,
                 const std::function<void(size_t, Clock::time_point)> &issue)
{
    std::vector<double> lagMs;
    lagMs.reserve(dueUs.size());
    for (size_t i = 0; i < dueUs.size(); ++i) {
        Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::micro>(dueUs[i]));
        std::this_thread::sleep_until(due);
        lagMs.push_back(msBetween(due, Clock::now()));
        issue(i, due);
    }
    return lagMs;
}

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

namespace {

/** Raw bytes of a contiguous tensor of a memcmp-comparable dtype. */
const void *
rawBytes(const Tensor &t)
{
    if (!t.isContiguous())
        return nullptr;
    switch (t.dtype()) {
    case DType::F32:
        return t.dataF32();
    case DType::I32:
        return t.dataI32();
    case DType::I8:
        return t.dataI8();
    default:
        return nullptr;
    }
}

}  // namespace

bool
sameBits(const std::vector<Tensor> &a, const std::vector<Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].dtype() != b[i].dtype() || a[i].shape() != b[i].shape())
            return false;
        const void *pa = rawBytes(a[i]), *pb = rawBytes(b[i]);
        bool same = pa && pb
                        ? std::memcmp(pa, pb,
                                      static_cast<size_t>(a[i].bytes())) == 0
                        : bitDifference({a[i]}, {b[i]}).empty();
        if (!same)
            return false;
    }
    return true;
}

double
peakRssMiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

std::vector<std::string>
scrubNgbEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "NGB_", 4) == 0) {
            std::string kv = *e;
            names.push_back(kv.substr(0, kv.find('=')));
        }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    return names;
}

uint64_t
SpanLog::record(const std::string &name, Clock::time_point start,
                Clock::time_point end, uint64_t traceId, uint64_t parent)
{
    Span s;
    s.name = name;
    s.traceId = traceId;
    s.parent = parent;
    s.startUs =
        std::chrono::duration<double, std::micro>(start - epoch_).count();
    s.durUs = std::chrono::duration<double, std::micro>(end - start).count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return spans_.size();
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    f << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // One track per request (tid = trace id), session spans on 0.
        f << (i ? ",\n" : "") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.traceId
          << ",\"ts\":" << s.startUs << ",\"dur\":" << s.durUs
          << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent
          << "}}";
    }
    f << "\n]}\n";
    return f.good();
}

}  // namespace perfbench
}  // namespace ngb
