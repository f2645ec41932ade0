#include "serve/serve_driver.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "graph/executor.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "runtime/request_util.h"
#include "runtime/runtime_profile.h"

namespace ngb {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Completion latch a closed-loop client waits on; shared with the
 *  batcher's callback so it survives either side exiting first. */
struct Latch {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
};

void
replayOpenLoop(std::vector<TraceEvent> &trace, RequestQueue &queue,
               Clock::time_point t0, ServeStats &counters)
{
    for (size_t n = 0; n < trace.size(); ++n) {
        if (queue.closed())
            return;  // batcher failed: stop replaying, report now
        TraceEvent &ev = trace[n];
        std::this_thread::sleep_until(
            t0 + std::chrono::microseconds(
                     static_cast<int64_t>(ev.atUs)));
        ServeRequest r;
        r.id = n;
        r.model = std::move(ev.model);
        r.seed = ev.seed;
        ++counters.offered;
        if (queue.push(std::move(r)))
            ++counters.admitted;
        else
            ++counters.rejected;
    }
}

void
runClosedLoop(const ServeConfig &cfg, RequestQueue &queue,
              Clock::time_point t0, ServeStats &counters)
{
    std::atomic<int64_t> offered{0}, admitted{0}, rejected{0};
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(cfg.clients));
    auto horizon = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(cfg.durationS));
    for (int c = 0; c < cfg.clients; ++c) {
        clients.emplace_back([&, c] {
            uint64_t pick_state =
                cfg.seed ^ (0x9e3779b97f4a7c15ull *
                            static_cast<uint64_t>(c + 1));
            for (uint64_t n = 0; Clock::now() < horizon; ++n) {
                ServeRequest r;
                r.id = (static_cast<uint64_t>(c + 1) << 32) | n;
                r.model = pickModel(cfg.mix, nextU01(pick_state));
                r.seed = requestSeed(cfg.seed,
                                     static_cast<uint64_t>(c + 1), n);
                auto latch = std::make_shared<Latch>();
                r.onComplete = [latch](std::vector<Tensor> &&) {
                    {
                        std::lock_guard<std::mutex> lock(latch->m);
                        latch->done = true;
                    }
                    latch->cv.notify_one();
                };
                ++offered;
                if (!queue.push(std::move(r))) {
                    ++rejected;
                    if (queue.closed())
                        return;
                    // Back off before retrying so shed clients do not
                    // busy-spin on the queue mutex (and inflate the
                    // offered/rejected counters) while the batcher
                    // works the backlog down.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                    continue;
                }
                ++admitted;
                std::unique_lock<std::mutex> lock(latch->m);
                latch->cv.wait(lock, [&] { return latch->done; });
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    counters.offered = offered;
    counters.admitted = admitted;
    counters.rejected = rejected;
}

/**
 * Atomically publish one snapshot file: write a sibling temp file,
 * then rename() over the target (atomic within a filesystem on
 * POSIX), so a scraper reading mid-tick sees either the previous
 * complete snapshot or the new one — never a torn prefix.
 */
void
publishSnapshot(const std::string &path,
                const std::function<void(std::ostream &)> &write)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::trunc);
        if (!f)
            return;
        write(f);
        if (!f.good())
            return;  // keep the last good snapshot in place
    }
    std::rename(tmp.c_str(), path.c_str());
}

/** Rewrite the JSON / Prometheus metrics snapshot files (if set). */
void
writeMetricsSnapshots(const ServeConfig &cfg)
{
    auto &reg = obs::MetricsRegistry::instance();
    if (!cfg.metricsJsonPath.empty())
        publishSnapshot(cfg.metricsJsonPath,
                        [&](std::ostream &os) { reg.writeJson(os); });
    if (!cfg.metricsPromPath.empty())
        publishSnapshot(cfg.metricsPromPath, [&](std::ostream &os) {
            reg.writePrometheus(os);
        });
}

/**
 * The serve loop's observer thread: every cadence tick it samples
 * queue depth onto the session time axis and republishes the metrics
 * snapshot files — the "scrape while serving" path, running beside
 * the batcher rather than inside it so observation never blocks
 * dispatch.
 */
class SamplerThread
{
  public:
    SamplerThread(const ServeConfig &cfg, RequestQueue &queue,
                  Clock::time_point t0)
        : cfg_(cfg), queue_(queue), t0_(t0)
    {
        if (cfg_.samplerCadenceUs > 0)
            thread_ = std::thread([this] { loop(); });
    }

    ~SamplerThread() { stopAndJoin(); }

    void stopAndJoin()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_one();
        thread_.join();
    }

    /** Samples taken so far; call after stopAndJoin(). */
    const std::vector<QueueDepthSample> &samples() const
    {
        return samples_;
    }

  private:
    void loop()
    {
        obs::Tracer::instance().setThreadName("sampler");
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            if (cv_.wait_for(
                    lock,
                    std::chrono::microseconds(cfg_.samplerCadenceUs),
                    [&] { return stop_; }))
                break;
            samples_.push_back(
                {std::chrono::duration<double, std::micro>(
                     Clock::now() - t0_)
                     .count(),
                 queue_.depth()});
            writeMetricsSnapshots(cfg_);
        }
    }

    const ServeConfig &cfg_;
    RequestQueue &queue_;
    Clock::time_point t0_;
    std::vector<QueueDepthSample> samples_;
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

void
verifyAgainstSerial(ServeResult &result, EngineCache &cache)
{
    // One serial Executor per model, dispatching through the SAME
    // kernel backend the engine served with (bit-identity is a
    // same-backend property; cross-backend accuracy is the
    // differential test suite's job). The engine's own graph is
    // reused so reference and served runs share shapes and params by
    // construction. Post-join cache.get() calls do not perturb the
    // reported hit/miss stats (already snapshotted).
    std::map<std::string, std::unique_ptr<Executor>> refs;
    for (const CompletedOutput &co : result.outputs) {
        Engine &engine = cache.get(co.model);
        std::unique_ptr<Executor> &ref = refs[co.model];
        if (!ref)
            ref = std::make_unique<Executor>(engine.graph(),
                                             engine.backend());
        std::vector<Tensor> want =
            ref->run(makeRequestInputs(engine.graph(), co.seed));
        ++result.verifiedRequests;
        if (!bitIdentical(want, co.outputs))
            ++result.verifyMismatches;
    }
    result.verified = true;
}

}  // namespace

ServeResult
runServe(const ServeConfig &cfg, ThreadPool &pool)
{
    // Fail on unknown tenants before any thread starts.
    for (const MixEntry &e : cfg.mix)
        models::findModel(e.model);

    EngineCache cache(pool, cfg.engine);
    RequestQueue queue(cfg.queueDepth, cfg.admission);

    ServeResult result;
    const bool collect = cfg.verify || cfg.collectOutputs;
    DynamicBatcher::Sink sink;
    if (collect)
        sink = [&result](const RequestRecord &rec,
                         const std::vector<Tensor> &outs) {
            // Dispatch-thread only. Retained views would pin their
            // request's arena block for the whole session, so
            // deep-copy and let the pool recycle the block.
            std::vector<Tensor> kept;
            kept.reserve(outs.size());
            for (const Tensor &t : outs)
                kept.push_back(t.clone());
            result.outputs.push_back(
                {rec.id, rec.model, rec.seed, std::move(kept)});
        };

    DynamicBatcher batcher(queue, cache, cfg.policy, std::move(sink));
    ServeStats counters;  // load-generator-side admission counts

    // Materialize the open-loop trace BEFORE t0: generation time must
    // not eat into the arrival schedule, or already-due events would
    // replay as a burst the Poisson process never contained.
    std::vector<TraceEvent> trace;
    if (cfg.clients <= 0)
        trace = poissonTrace(cfg.mix, cfg.rps, cfg.durationS, cfg.seed);

    uint64_t allocs0 = Storage::heapAllocCount();
    uint64_t alloc_bytes0 = Storage::heapAllocBytes();
    // Session counter aggregate = post-drain minus pre-start snapshot
    // of the cumulative per-thread tables (kernel scopes accumulate on
    // the batcher/pool threads while requests execute).
    obs::PerfCounterStats perf0;
    if (obs::perfEnabled())
        perf0 = obs::PerfAggregator::instance().totals();
    auto t0 = Clock::now();
    batcher.start(t0);
    SamplerThread sampler(cfg, queue, t0);
    if (cfg.clients > 0)
        runClosedLoop(cfg, queue, t0, counters);
    else
        replayOpenLoop(trace, queue, t0, counters);
    queue.close();
    batcher.join();  // rethrows dispatch-loop errors
    sampler.stopAndJoin();

    result.stats = batcher.stats();
    result.stats.durationUs = elapsedUsSince(t0);
    if (obs::perfEnabled())
        result.stats.perf = obs::PerfCounterStats::since(
            perf0, obs::PerfAggregator::instance().totals());
    result.stats.samplerCadenceUs =
        cfg.samplerCadenceUs > 0 ? cfg.samplerCadenceUs : 0;

    // One time axis for depth-over-time: event-driven dispatch samples
    // and fixed-cadence sampler samples, merged in timestamp order.
    result.stats.depthSamples.insert(result.stats.depthSamples.end(),
                                     sampler.samples().begin(),
                                     sampler.samples().end());
    std::sort(result.stats.depthSamples.begin(),
              result.stats.depthSamples.end(),
              [](const QueueDepthSample &a, const QueueDepthSample &b) {
                  return a.tUs < b.tUs;
              });

    if (obs::traceEnabled()) {
        obs::SpanEvent ev;
        ev.kind = obs::SpanKind::Mark;
        ev.setLabel("serve_session");
        ev.startUs = obs::Tracer::instance().sinceEpochUs(t0);
        ev.durUs = result.stats.durationUs;
        obs::Tracer::instance().record(ev);
    }
    writeMetricsSnapshots(cfg);  // final totals after drain
    result.stats.offered = counters.offered;
    result.stats.admitted = counters.admitted;
    result.stats.rejected = counters.rejected;

    result.stats.tensorAllocs =
        static_cast<int64_t>(Storage::heapAllocCount() - allocs0);
    result.stats.tensorAllocBytes =
        static_cast<int64_t>(Storage::heapAllocBytes() - alloc_bytes0);
    auto cache_stats = cache.stats();
    result.stats.arenaBlocks =
        static_cast<int64_t>(cache_stats.arenaBlocks);
    result.stats.arenaBlockBytes = cache_stats.arenaBlockBytes;
    result.stats.quantMode = cfg.engine.quant;
    result.stats.quant = cache_stats.quant;

    if (cfg.verify)
        verifyAgainstSerial(result, cache);
    return result;
}

}  // namespace serve
}  // namespace ngb
