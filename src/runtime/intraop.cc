#include "runtime/intraop.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "obs/trace.h"
#include "tensor/scratch.h"

namespace ngb {

IntraOpMode
intraOpModeFromEnv()
{
    const char *env = std::getenv("NGB_INTRAOP");
    if (!env || !*env)
        return IntraOpMode::Auto;
    const std::string s(env);
    if (s == "0")
        return IntraOpMode::Off;
    if (s == "1")
        return IntraOpMode::On;
    return parseIntraOpMode(s);
}

IntraOpMode
parseIntraOpMode(const std::string &s)
{
    if (s == "off")
        return IntraOpMode::Off;
    if (s == "on")
        return IntraOpMode::On;
    if (s == "auto")
        return IntraOpMode::Auto;
    throw std::runtime_error("unknown intra-op mode '" + s +
                             "' (expected on, off, or auto)");
}

const char *
intraOpModeName(IntraOpMode m)
{
    switch (m) {
    case IntraOpMode::Off:
        return "off";
    case IntraOpMode::On:
        return "on";
    case IntraOpMode::Auto:
        return "auto";
    }
    return "?";
}

void
ParallelRegion::run(size_t nShards,
                    const std::function<void(size_t, int)> &fn) const
{
    if (nShards == 0)
        return;
    // Capture the dispatching thread's trace id here: pool workers do
    // not inherit thread-locals, so each shard re-establishes it (the
    // Shard spans must land under the launching request).
    const uint64_t traceId = obs::currentTraceId();
    const int64_t total = static_cast<int64_t>(nShards);
    auto shard = [&](size_t i, int worker) {
        obs::TraceIdScope tid(traceId);
        obs::ScopedSpan span(obs::SpanKind::Shard);
        if (span.armed()) {
            span.ev().a0 = static_cast<int64_t>(i);
            span.ev().a1 = total;
            span.ev().a2 = worker;
        }
        // Pack panels a shard allocates die with the shard: the next
        // shard this worker picks up starts from a clean high-water
        // mark instead of stacking panels.
        ScratchScope scratch;
        fn(i, worker);
    };
    if (!pool_ || pool_->threads() == 1 || nShards == 1) {
        for (size_t i = 0; i < nShards; ++i)
            shard(i, ThreadPool::inTask()
                          ? std::max(ThreadPool::currentWorker(), 0)
                          : 0);
        return;
    }
    pool_->parallelFor(nShards, shard);
}

}  // namespace ngb
