/**
 * @file
 * ngb_perfbench: one measured run of one benchmark workload on the
 * library's default configuration (EngineConfig{} with every NGB_*
 * variable cleared; offline_int8 alone sets quant=int8).
 *
 *   ngb_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
 *                 [--setup-only] [--trace-out FILE]
 *
 * Phases: set-up (per model: first EngineCache::get through its first
 * completed warm-up request, timed as setup_s), an untimed warm pass,
 * the measured phase (at least --seconds of the workload's fixed,
 * seeded request plan), then the correctness oracle. --trace 1 also
 * records the benchmark's own spans around each call into a layer and
 * reads the library's public stats objects; end-to-end numbers are
 * only meaningful from an untraced run. The last stdout line is one
 * JSON object; perfbench/run.py combines several runs into the
 * benchmark result.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "graph/executor.h"
#include "harness.h"
#include "platform/cpu_features.h"
#include "platform/tuning_cache.h"
#include "runtime/request_util.h"
#include "serve/dynamic_batcher.h"
#include "serve/engine.h"
#include "serve/load_gen.h"
#include "serve/request_queue.h"

using namespace ngb;
using namespace ngb::perfbench;

namespace {

enum class Loop {
    Closed,   ///< one client, next request after the previous completes
    Open,     ///< Poisson arrivals pushed on schedule
    Offline,  ///< fixed batches straight into Engine::run
};

/**
 * The workloads. Closed and offline mixes are exact per-pass counts
 * (requests, resp. batches); the open mix is poissonTrace weights.
 * Why each exists is recorded in BENCHMARK.json.
 */
struct WorkloadSpec {
    std::string name;
    Loop loop;
    std::vector<serve::MixEntry> mix;
    std::string quant;  ///< "" keeps the default
};

const std::vector<WorkloadSpec> &
workloads()
{
    // interactive: per-pass shares gpt2 20% | swin_t 40% | detr 20% |
    // vit_b 20%, fastest to slowest, so p50 sits 10 points inside the
    // swin_t mode and p90 in the middle of the vit_b mode.
    // offline_int8: bert 40% | gpt2 40% | gpt2_l 20% of batches puts
    // p50 inside gpt2 and p90 inside gpt2_l.
    static const std::vector<WorkloadSpec> w = {
        {"interactive", Loop::Closed,
         {{"gpt2", 8}, {"swin_t", 16}, {"detr", 8}, {"vit_b", 8}}, ""},
        {"serve_cnn", Loop::Open, {{"resnet50", 1}, {"mobilenet_v2", 1}},
         ""},
        {"offline_int8", Loop::Offline,
         {{"bert", 2}, {"gpt2", 2}, {"gpt2_l", 1}}, "int8"},
    };
    return w;
}

/**
 * A quarter of the default config's ~200 req/s saturation. At half
 * (100 req/s) the dispatcher is ~85% busy, and the CPU time a shared
 * host steals moved p50 by 27% between runs; here it moves ~6%.
 */
constexpr double kServeCnnRps = 50;
/** Warm-up arrivals before the measured serve_cnn trace. */
constexpr double kServeCnnWarmS = 1.0;
/** Distinct request inputs per model in the open-loop trace. */
constexpr uint64_t kInputPool = 16;
constexpr int kOfflineBatch = 8;

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    std::string traceOut;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = value() != "0";
        else if (a == "--setup-only")
            o.setupOnly = true;
        else if (a == "--trace-out")
            o.traceOut = value();
        else
            throw std::runtime_error("unknown argument " + a);
    }
    if (!(o.seconds > 0 && o.seconds <= 600))
        throw std::runtime_error("--seconds must be in (0, 600]");
    return o;
}

/** Identity of one distinct request the oracle replays. */
struct Key {
    std::string model;
    uint64_t seed = 0;
    bool operator<(const Key &o) const
    {
        return std::tie(model, seed) < std::tie(o.model, o.seed);
    }
};

/** One response of the measured phase. */
struct Response {
    size_t key = 0;
    size_t pass = 0;  ///< closed/offline: pass index; open: request index
    double latencyMs = 0;
    bool empty = false;       ///< completed without outputs (failed)
    bool sameAsFirst = true;  ///< bit-identical to the key's first response
};

/** Measured per-Engine::run numbers read from BatchDriver::profile(). */
struct RunSample {
    std::string model;
    int requests = 0;
    double wallMs = 0;
    double kernelUs = 0;
    double gemmUs = 0;
    std::map<OpCategory, double> catUs;
    bool deep = false;  ///< single request on the intra-op deep path
    int64_t steals = 0;
    int64_t heapAllocs = 0;
    quant::QuantExecStats quant;
};

RunSample
sampleOf(const std::string &model, const RuntimeProfile &p, double wallMs)
{
    RunSample s;
    s.model = model;
    s.requests = p.requests;
    s.wallMs = wallMs;
    s.kernelUs = p.sumUs;
    s.gemmUs = p.gemmUs();
    s.catUs = p.usByCategory;
    // BatchDriver records no per-level timings, so the deep path is
    // read from the profile's own inputs to that choice.
    s.deep = p.requests == 1 && p.threads > 1 && p.intraop != "off";
    s.steals = p.steals;
    s.heapAllocs = p.memory.heapAllocs;
    s.quant = p.quant;
    return s;
}

/**
 * Everything a run measures. The serve-path members are written on
 * the batcher thread while it runs and read only after join().
 */
struct Session {
    const WorkloadSpec &spec;
    const Options &opt;
    ThreadPool pool;
    serve::EngineConfig cfg;
    serve::EngineCache cache;
    std::map<std::string, serve::Engine *> engines;
    std::unique_ptr<SpanLog> spans;

    // Set-up.
    double setupS = 0;
    double buildMs = 0;
    double planMs = 0;
    double warmupMs = 0;
    uint64_t tuneRuns0 = 0;          ///< before the first get
    uint64_t tuneRunsAtMeasure = 0;  ///< when the measured phase began
    uint64_t tuneRunsSetup = 0;      ///< set-up and warm pass
    uint64_t tuneRunsMeasured = 0;

    // Measured phase.
    std::vector<Key> keys;
    std::map<Key, size_t> keyIndex;
    std::vector<std::vector<Tensor>> firstOutputs;  ///< per key
    std::vector<Response> responses;
    int64_t attempted = 0;
    int64_t rejected = 0;
    size_t passSize = 1;          ///< requests per pass
    size_t passes = 0;            ///< passes measured
    std::vector<double> passWallS;  ///< closed/offline: wall per pass
    double openWallS = 0;  ///< open loop: first due to last completion
    double peakRss = 0;

    // Per-layer figures, reported by the traced run.
    std::vector<RunSample> runs;
    std::vector<double> queueMs, execMs, lagMs;
    double batchSizeMean = 0, deadlineCloseFrac = 0, cacheHitRate = 0;

    Session(const WorkloadSpec &s, const Options &o)
        : spec(s), opt(o), cfg(configFor(s)), cache(pool, cfg)
    {
        if (o.trace)
            spans = std::make_unique<SpanLog>(Clock::now());
    }

    static serve::EngineConfig configFor(const WorkloadSpec &s)
    {
        serve::EngineConfig cfg;
        if (!s.quant.empty())
            cfg.quant = s.quant;
        return cfg;
    }

    size_t keyOf(const std::string &model, uint64_t seed)
    {
        Key k{model, seed};
        auto [it, inserted] = keyIndex.emplace(k, keys.size());
        if (inserted) {
            keys.push_back(k);
            firstOutputs.emplace_back();
        }
        return it->second;
    }

    /**
     * Record one completed response (one writer at a time): the first
     * of its key is kept for the oracle, later ones must match it
     * bit for bit.
     */
    Response respond(size_t key, size_t pass, Clock::time_point from,
                     Clock::time_point done, const std::vector<Tensor> &outs)
    {
        Response r;
        r.key = key;
        r.pass = pass;
        r.latencyMs = msBetween(from, done);
        r.empty = outs.empty();
        std::vector<Tensor> &first = firstOutputs[key];
        if (r.empty)
            return r;
        if (first.empty())
            for (const Tensor &t : outs)
                first.push_back(t.clone());
        else
            r.sameAsFirst = sameBits(outs, first);
        return r;
    }

    /** Record a span in a traced run; returns its id (0 untraced). */
    uint64_t span(const std::string &name, Clock::time_point a,
                  Clock::time_point b, uint64_t traceId = 0,
                  uint64_t parent = 0)
    {
        return spans ? spans->record(name, a, b, traceId, parent) : 0;
    }

    uint64_t tuneRuns() const
    {
        return simd::TuningCache::process().stats().tuneRuns;
    }

    /** Everything before this call counts as set-up. */
    void measureStart()
    {
        tuneRunsAtMeasure = tuneRuns();
        tuneRunsSetup = tuneRunsAtMeasure - tuneRuns0;
    }
};

// ---- serving path ------------------------------------------------------

/** Completion latch for a closed-loop client. */
struct Latch {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Response response;
};

/**
 * The traced run's window onto the batcher: per completed request it
 * records queue/exec spans from the RequestRecord, and once per batch
 * the engine's BatchDriver::profile(). Runs on the dispatch thread,
 * right after Engine::run and before onComplete.
 */
serve::DynamicBatcher::Sink
tracingSink(Session &s, const std::vector<Clock::time_point> &from)
{
    auto remaining = std::make_shared<int>(0);
    return [&s, &from, remaining](const RequestRecord &rec,
                                  const std::vector<Tensor> &) {
        Clock::time_point now = Clock::now();
        auto us = [](double v) {
            return std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::micro>(v));
        };
        Clock::time_point close = now - us(rec.execUs);
        uint64_t tid = rec.id + 1;
        uint64_t req = rec.id < from.size()
                           ? s.span("request", from[rec.id], now, tid)
                           : 0;
        s.span("serve.queue", close - us(rec.queueUs), close, tid, req);
        uint64_t exec = s.span("serve.exec", close, now, tid, req);
        s.queueMs.push_back(rec.queueUs / 1e3);
        s.execMs.push_back(rec.execUs / 1e3);
        if (*remaining == 0) {
            *remaining = rec.batchSize;
            const RuntimeProfile &p =
                s.engines.at(rec.model)->driver().profile();
            double wallMs = p.wallUs / 1e3;
            s.span("runtime.run", now - us(p.wallUs), now, tid, exec);
            s.runs.push_back(sampleOf(rec.model, p, wallMs));
        }
        --*remaining;
    };
}

/** Push one request and block until it completes; false if refused. */
bool
issueAndWait(RequestQueue &queue, uint64_t id,
             const std::string &model, uint64_t seed,
             const std::function<Response(std::vector<Tensor> &)> &done,
             Response *out)
{
    auto latch = std::make_shared<Latch>();
    ServeRequest r;
    r.id = id;
    r.model = model;
    r.seed = seed;
    r.onComplete = [latch, done](std::vector<Tensor> &&outs) {
        Response resp = done(outs);
        {
            std::lock_guard<std::mutex> lock(latch->m);
            latch->response = resp;
            latch->done = true;
        }
        latch->cv.notify_one();
    };
    if (!queue.push(std::move(r)))
        return false;
    std::unique_lock<std::mutex> lock(latch->m);
    latch->cv.wait(lock, [&] { return latch->done; });
    if (out)
        *out = latch->response;
    return true;
}

/** A queue and batcher that live for one phase of the run. */
struct Server {
    RequestQueue queue;
    serve::DynamicBatcher batcher;

    Server(Session &s, serve::DynamicBatcher::Sink sink = nullptr)
        : batcher(queue, s.cache, serve::DynamicBatcher::Policy{},
                  std::move(sink))
    {
        batcher.start();
    }

    /** Drain and stop; rethrows a dispatch-loop failure. */
    void finish()
    {
        queue.close();
        batcher.join();
    }
};

/** Batcher and cache figures of a finished measured phase. */
void
readServeStats(Session &s, const Server &server,
               const serve::EngineCache::Stats &before)
{
    serve::EngineCache::Stats after = s.cache.stats();
    const ServeStats &st = server.batcher.stats();
    s.batchSizeMean = st.meanBatchSize();
    int64_t byTimeout = 0;
    for (const BatchRecord &b : st.batches)
        byTimeout += b.closedByTimeout ? 1 : 0;
    s.deadlineCloseFrac =
        st.batches.empty() ? 0 : double(byTimeout) / st.batches.size();
    int64_t hits = after.hits - before.hits;
    int64_t lookups = hits + after.misses - before.misses;
    s.cacheHitRate = lookups > 0 ? double(hits) / lookups : 0;
}

// ---- set-up --------------------------------------------------------------

std::vector<std::string>
modelsOf(const WorkloadSpec &spec)
{
    std::vector<std::string> m;
    for (const serve::MixEntry &e : spec.mix)
        m.push_back(e.model);
    std::sort(m.begin(), m.end());
    return m;
}

std::vector<std::vector<Tensor>>
batchInputs(const Graph &g, uint64_t batchSeed)
{
    std::vector<std::vector<Tensor>> in;
    for (int j = 0; j < kOfflineBatch; ++j)
        in.push_back(makeRequestInputs(
            g, serve::requestSeed(batchSeed, 0, static_cast<uint64_t>(j))));
    return in;
}

/**
 * Per model: first EngineCache::get through the first completed
 * warm-up request, over the path the workload serves it on.
 */
void
setUp(Session &s)
{
    s.tuneRuns0 = s.tuneRuns();
    std::unique_ptr<Server> server;
    if (s.spec.loop != Loop::Offline)
        server = std::make_unique<Server>(s);
    uint64_t warmSeed = serve::requestSeed(s.opt.seed, 9, 0);
    for (const std::string &model : modelsOf(s.spec)) {
        Clock::time_point t0 = Clock::now();
        serve::Engine &e = s.cache.get(model);
        Clock::time_point t1 = Clock::now();
        s.engines[model] = &e;
        if (server) {
            if (!issueAndWait(server->queue, 0, model, warmSeed,
                              [](std::vector<Tensor> &) {
                                  return Response{};
                              },
                              nullptr))
                throw std::runtime_error("warm-up request refused");
        } else {
            e.run(batchInputs(e.graph(), warmSeed));
        }
        Clock::time_point t2 = Clock::now();
        s.setupS += msBetween(t0, t2) / 1e3;
        s.buildMs += e.buildUs() / 1e3;
        s.planMs += e.driver().plan().planUs / 1e3;
        s.warmupMs += msBetween(t1, t2);
        uint64_t setup = s.span("setup." + model, t0, t2);
        s.span("setup.engine_cache_get", t0, t1, 0, setup);
        s.span("setup.warmup", t1, t2, 0, setup);
    }
    if (server)
        server->finish();
}

// ---- measured phases ----------------------------------------------------

/** One pass of the closed-loop plan, through queue, batcher, cache. */
void
closedPass(Session &s, Server &server,
           const std::vector<PlannedRequest> &pass,
           const std::vector<size_t> &keys, uint64_t &nextId,
           std::vector<Clock::time_point> *issued, bool record)
{
    for (size_t i = 0; i < pass.size(); ++i) {
        if (server.queue.closed())
            break;  // the batcher failed; stop issuing
        const PlannedRequest &pr = pass[i];
        size_t key = keys[i];
        uint64_t id = nextId++;
        Clock::time_point t0 = Clock::now();
        if (issued)
            (*issued)[id] = t0;
        Response resp;
        bool admitted = issueAndWait(
            server.queue, id, pr.model, pr.seed,
            [&s, key, t0, record](std::vector<Tensor> &outs) {
                Clock::time_point done = Clock::now();
                return record ? s.respond(key, s.passes, t0, done, outs)
                              : Response{};
            },
            &resp);
        if (!record)
            continue;
        ++s.attempted;
        if (admitted)
            s.responses.push_back(resp);
        else
            ++s.rejected;
    }
}

void
runClosedLoop(Session &s)
{
    std::vector<PlannedRequest> pass = seededPass(s.spec.mix, s.opt.seed, 2);
    std::vector<size_t> keys;
    for (const PlannedRequest &pr : pass)
        keys.push_back(s.keyOf(pr.model, pr.seed));
    uint64_t nextId = 0;
    {
        Server warm(s);
        closedPass(s, warm, pass, keys, nextId, nullptr, false);
        warm.finish();
    }

    // Issue times by request id, for the traced request spans. It only
    // grows between passes, when the one client has no request in
    // flight, so the sink never reads it during a resize.
    std::vector<Clock::time_point> issued;
    serve::DynamicBatcher::Sink sink;
    if (s.opt.trace)
        sink = tracingSink(s, issued);
    Server server(s, sink);
    serve::EngineCache::Stats c0 = s.cache.stats();
    nextId = 0;
    s.measureStart();
    s.passSize = pass.size();
    Clock::time_point t0 = Clock::now();
    // Whole passes until the budget is spent: every run serves the
    // same plan, a faster build just replays it more often.
    do {
        if (s.opt.trace)
            issued.resize(issued.size() + pass.size());
        Clock::time_point p0 = Clock::now();
        closedPass(s, server, pass, keys, nextId,
                   s.opt.trace ? &issued : nullptr, true);
        s.passWallS.push_back(msBetween(p0, Clock::now()) / 1e3);
        ++s.passes;
    } while (msBetween(t0, Clock::now()) < s.opt.seconds * 1e3 &&
             !server.queue.closed());
    server.finish();
    readServeStats(s, server, c0);
}

void
runOpenLoop(Session &s)
{
    // Untimed warm-up arrivals on an unrelated trace seed.
    {
        Server warm(s);
        auto trace = openLoopTrace(s.spec.mix, kServeCnnRps,
                                        kServeCnnWarmS, ~s.opt.seed,
                                        kInputPool);
        std::vector<double> due;
        for (const serve::TraceEvent &ev : trace)
            due.push_back(ev.atUs);
        replayOnSchedule(due, Clock::now(),
                         [&](size_t i, Clock::time_point) {
                             ServeRequest r;
                             r.id = i;
                             r.model = trace[i].model;
                             r.seed = trace[i].seed;
                             warm.queue.push(std::move(r));
                         });
        warm.finish();
    }

    auto trace = openLoopTrace(s.spec.mix, kServeCnnRps, s.opt.seconds,
                                    s.opt.seed, kInputPool);
    std::vector<double> dueUs;
    std::vector<size_t> keyOfReq;
    for (const serve::TraceEvent &ev : trace) {
        dueUs.push_back(ev.atUs);
        keyOfReq.push_back(s.keyOf(ev.model, ev.seed));
    }
    std::vector<Clock::time_point> dueTp(trace.size());
    std::vector<Response> slots(trace.size());
    std::vector<char> completed(trace.size(), 0);

    serve::DynamicBatcher::Sink sink;
    if (s.opt.trace)
        sink = tracingSink(s, dueTp);
    Server server(s, sink);
    serve::EngineCache::Stats c0 = s.cache.stats();
    std::mutex lastMutex;
    Clock::time_point last{};
    s.measureStart();
    Clock::time_point t0 = Clock::now();
    std::vector<double> lag = replayOnSchedule(
        dueUs, t0, [&](size_t i, Clock::time_point due) {
            dueTp[i] = due;
            ServeRequest r;
            r.id = i;
            r.model = trace[i].model;
            r.seed = trace[i].seed;
            r.onComplete = [&, i, due](std::vector<Tensor> &&outs) {
                Clock::time_point done = Clock::now();
                slots[i] = s.respond(keyOfReq[i], i, due, done, outs);
                completed[i] = 1;
                std::lock_guard<std::mutex> lock(lastMutex);
                last = std::max(last, done);
            };
            Clock::time_point pushed0 = Clock::now();
            bool ok = server.queue.push(std::move(r));
            s.span("loadgen.push", pushed0, Clock::now(), i + 1);
            if (!ok)
                ++s.rejected;
        });
    server.finish();
    s.openWallS = last > t0 ? msBetween(t0, last) / 1e3 : 0;
    s.attempted = static_cast<int64_t>(trace.size());
    s.passes = trace.size();  // one request per pass
    for (size_t i = 0; i < trace.size(); ++i)
        if (completed[i])
            s.responses.push_back(slots[i]);
    s.lagMs = lag;
    readServeStats(s, server, c0);
}

void
runOffline(Session &s)
{
    // One pass = the seeded batch order; each batch is 8 requests.
    std::vector<PlannedRequest> pass = seededPass(s.spec.mix, s.opt.seed, 3);
    struct Batch {
        serve::Engine *engine;
        std::vector<std::vector<Tensor>> inputs;
        std::vector<size_t> keys;
    };
    std::vector<Batch> batches;
    for (const PlannedRequest &pr : pass) {
        Batch b{s.engines.at(pr.model), {}, {}};
        b.inputs = batchInputs(b.engine->graph(), pr.seed);
        for (int j = 0; j < kOfflineBatch; ++j)
            b.keys.push_back(s.keyOf(
                pr.model,
                serve::requestSeed(pr.seed, 0, static_cast<uint64_t>(j))));
        batches.push_back(std::move(b));
    }
    for (Batch &b : batches)  // untimed warm pass
        b.engine->run(b.inputs);

    s.measureStart();
    s.passSize = batches.size() * kOfflineBatch;
    uint64_t batchId = 0;
    Clock::time_point t0 = Clock::now();
    do {
        // Checking responses happens between batches; a pass's wall
        // time is the time spent inside Engine::run.
        double passMs = 0;
        for (Batch &b : batches) {
            std::vector<std::vector<Tensor>> outs;
            Clock::time_point a = Clock::now();
            try {
                outs = b.engine->run(b.inputs);
            } catch (const std::exception &e) {
                std::cerr << "perfbench: " << b.engine->model()
                          << " batch failed: " << e.what() << "\n";
            }
            Clock::time_point z = Clock::now();
            passMs += msBetween(a, z);
            s.attempted += kOfflineBatch;
            outs.resize(kOfflineBatch);  // a failed batch answers empty
            for (int j = 0; j < kOfflineBatch; ++j)
                s.responses.push_back(
                    s.respond(b.keys[j], s.passes, a, z, outs[j]));
            if (s.opt.trace) {
                s.span("runtime.run", a, z, ++batchId);
                s.runs.push_back(sampleOf(b.engine->model(),
                                          b.engine->driver().profile(),
                                          msBetween(a, z)));
            }
        }
        s.passWallS.push_back(passMs / 1e3);
        ++s.passes;
    } while (msBetween(t0, Clock::now()) < s.opt.seconds * 1e3);
}

// ---- correctness oracle -------------------------------------------------

/**
 * Replay every distinct request serially (Executor on the engine's own
 * graph and backend) and compare the key's first response with
 * bitDifference; every later response already had to match the first
 * bit for bit. Under a non-reference default backend the first
 * response is also held to the reference backend with
 * closeDifference. Returns the number of wrong responses.
 */
int64_t
checkOutputs(Session &s)
{
    std::vector<bool> keyWrong(s.keys.size(), false);
    std::map<std::string, std::unique_ptr<Executor>> serial, reference;
    int reported = 0;
    auto report = [&](const Key &k, const std::string &what) {
        if (reported++ < 5)
            std::cerr << "perfbench: WRONG OUTPUT " << k.model << " seed "
                      << k.seed << ": " << what << "\n";
    };
    for (size_t i = 0; i < s.keys.size(); ++i) {
        const Key &k = s.keys[i];
        if (s.firstOutputs[i].empty())
            continue;  // never completed with outputs
        serve::Engine &e = *s.engines.at(k.model);
        auto &ex = serial[k.model];
        if (!ex)
            ex = std::make_unique<Executor>(e.graph(), e.backend());
        std::vector<Tensor> inputs = makeRequestInputs(e.graph(), k.seed);
        std::string diff = bitDifference(s.firstOutputs[i], ex->run(inputs));
        if (diff.empty() && e.backend().name() != "reference") {
            auto &ref = reference[k.model];
            if (!ref)
                ref = std::make_unique<Executor>(e.graph(),
                                                 findBackend("reference"));
            diff = closeDifference(s.firstOutputs[i], ref->run(inputs));
            if (!diff.empty())
                diff = "vs reference backend: " + diff;
        }
        if (!diff.empty()) {
            keyWrong[i] = true;
            report(k, diff);
        }
    }
    int64_t wrong = 0;
    for (const Response &r : s.responses)
        if (!r.empty && (keyWrong[r.key] || !r.sameAsFirst)) {
            ++wrong;
            if (!keyWrong[r.key])
                report(s.keys[r.key], "differs from the key's first "
                                      "response");
        }
    return wrong;
}

// ---- reporting ------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** Every model of every workload, once each. */
std::vector<std::string>
allModels()
{
    std::vector<std::string> m;
    for (const WorkloadSpec &w : workloads())
        for (const std::string &name : modelsOf(w))
            if (std::find(m.begin(), m.end(), name) == m.end())
                m.push_back(name);
    return m;
}

/**
 * End-to-end metrics, each the median over windows of whole passes
 * (windowOfPass). Open-loop throughput is the whole phase's: per
 * window it would only restate the arrival pattern.
 */
std::vector<Metric>
endToEnd(const Session &s, int64_t failed, size_t *samples)
{
    size_t windows = windowOfPass(s.passes, s.passes, s.passSize) + 1;
    std::vector<std::vector<double>> lat(windows);
    std::vector<double> done(windows, 0), wall(windows, 0);
    *samples = 0;
    for (const Response &r : s.responses) {
        if (r.empty)
            continue;
        size_t w = windowOfPass(r.pass, s.passes, s.passSize);
        lat[w].push_back(r.latencyMs);
        done[w] += 1;
        ++*samples;
    }
    for (size_t p = 0; p < s.passWallS.size(); ++p)
        wall[windowOfPass(p, s.passes, s.passSize)] += s.passWallS[p];
    std::vector<double> p50, p90, rate;
    for (size_t w = 0; w < windows; ++w) {
        p50.push_back(percentile(lat[w], 50));
        p90.push_back(percentile(lat[w], 90));
        if (wall[w] > 0)
            rate.push_back(done[w] / wall[w]);
    }
    if (s.passWallS.empty())
        rate = {s.openWallS > 0 ? static_cast<double>(*samples) / s.openWallS
                                : 0};
    double attempted = static_cast<double>(std::max<int64_t>(s.attempted, 1));
    return {
        {"setup_s", s.setupS, "s"},
        {"latency_p50_ms", median(p50), "ms"},
        {"latency_p90_ms", median(p90), "ms"},
        {"throughput_rps", median(rate), "1/s"},
        {"peak_rss_mib", s.peakRss, "MiB"},
        {"ok_rate", 1.0 - static_cast<double>(failed) / attempted, "ratio"},
    };
}

/** Per-layer metrics of a traced run; 0 where the layer is not used. */
std::vector<Metric>
perLayer(const Session &s)
{
    double reqs = 0, kernelUs = 0, gemmUs = 0, wallUs = 0, deep = 0,
           steals = 0, allocs = 0;
    std::map<OpCategory, double> cat;
    quant::QuantExecStats q;
    std::vector<double> runMs;
    std::map<std::string, std::vector<double>> modelMs;
    for (const RunSample &r : s.runs) {
        reqs += r.requests;
        kernelUs += r.kernelUs;
        gemmUs += r.gemmUs;
        wallUs += r.wallMs * 1e3;
        deep += r.deep ? 1 : 0;
        steals += static_cast<double>(r.steals);
        allocs += static_cast<double>(r.heapAllocs);
        for (const auto &[c, us] : r.catUs)
            cat[c] += us;
        q.int8GemmUs += r.quant.int8GemmUs;
        q.floatGemmUs += r.quant.floatGemmUs;
        q.qdqUs += r.quant.qdqUs;
        runMs.push_back(r.wallMs);
        modelMs[r.model].push_back(r.wallMs);
    }
    auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
    serve::EngineCache::Stats cs = s.cache.stats();
    bool quantized = cs.quant.quantized;

    std::vector<Metric> m = {
        {"serve.queue_wait_p50_ms", percentile(s.queueMs, 50), "ms"},
        {"serve.exec_p50_ms", percentile(s.execMs, 50), "ms"},
        {"serve.batch_size_mean", s.batchSizeMean, "count"},
        {"serve.deadline_close_frac", s.deadlineCloseFrac, "ratio"},
        {"serve.cache_hit_rate", s.cacheHitRate, "ratio"},
        {"loadgen.lag_p99_ms", percentile(s.lagMs, 99), "ms"},
        {"runtime.run_ms_p50", percentile(runMs, 50), "ms"},
        {"runtime.concurrency", per(kernelUs, wallUs), "ratio"},
        {"runtime.deep_run_frac", per(deep, double(s.runs.size())),
         "ratio"},
        {"runtime.heap_allocs_per_req", per(allocs, reqs), "count"},
        {"runtime.steals", per(steals, double(s.runs.size())), "count/run"},
        {"runtime.plan_ms", s.planMs, "ms"},
        {"ops.kernel_ms_per_req", per(kernelUs, reqs) / 1e3, "ms"},
        {"ops.gemm_ms_per_req", per(gemmUs, reqs) / 1e3, "ms"},
        {"ops.nongemm_ms_per_req", per(kernelUs - gemmUs, reqs) / 1e3, "ms"},
        {"ops.nongemm_pct", 100 * per(kernelUs - gemmUs, kernelUs), "%"},
    };
    for (int c = 0; c <= static_cast<int>(OpCategory::Misc); ++c) {
        OpCategory oc = static_cast<OpCategory>(c);
        m.push_back({"ops." + opCategoryName(oc) + "_ms_per_req",
                     per(cat[oc], reqs) / 1e3, "ms"});
    }
    for (const std::string &model : allModels())
        m.push_back({"model." + model + ".run_ms_p50",
                     percentile(modelMs[model], 50), "ms"});
    m.insert(m.end(), {
        {"quant.int8_gemm_ms_per_req", per(q.int8GemmUs, reqs) / 1e3, "ms"},
        {"quant.float_gemm_ms_per_req",
         quantized ? per(q.floatGemmUs, reqs) / 1e3 : 0, "ms"},
        {"quant.qdq_ms_per_req", per(q.qdqUs, reqs) / 1e3, "ms"},
        {"quant.qdq_ops", double(cs.quant.qdqOps), "count"},
        {"quant.weight_compression",
         quantized ? cs.quant.weightCompression() : 0, "ratio"},
        {"platform.tune_runs_setup", double(s.tuneRunsSetup), "count"},
        {"platform.tune_runs_measured", double(s.tuneRunsMeasured), "count"},
        {"setup.engine_build_ms", s.buildMs, "ms"},
        {"setup.warmup_ms", s.warmupMs, "ms"},
    });
    return m;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(bool correct, int64_t attempted, int64_t failed,
            const std::vector<Metric> &metrics, size_t samples)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"samples\": " << samples << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    os << "}}";
    std::cout << os.str() << std::endl;
}

int
run(const Options &opt)
{
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : workloads())
        if (w.name == opt.workload)
            spec = &w;
    if (!spec)
        throw std::runtime_error("unknown workload '" + opt.workload +
                                 "' (interactive | serve_cnn | "
                                 "offline_int8)");
    Session s(*spec, opt);
    setUp(s);
    serve::Engine &any = *s.engines.begin()->second;
    std::cout << "config: workload=" << spec->name << " seed=" << opt.seed
              << " backend=" << any.backend().name()
              << " isa=" << platform::isaName(platform::activeIsa())
              << " threads=" << s.pool.threads()
              << " intraop=" << intraOpModeName(s.cfg.intraop)
              << " arena=" << (s.cfg.arena ? "on" : "off")
              << " fuse=" << (s.cfg.fuse ? "on" : "off")
              << " quant=" << s.cfg.quant << " scale=1/" << s.cfg.scale
              << " machine=" << platform::machineTag() << "\n";
    if (opt.setupOnly) {
        printResult(true, 1, 0, {{"setup_s", s.setupS, "s"}}, 1);
        return 0;
    }

    switch (spec->loop) {
    case Loop::Closed:
        runClosedLoop(s);
        break;
    case Loop::Open:
        runOpenLoop(s);
        break;
    case Loop::Offline:
        runOffline(s);
        break;
    }
    s.tuneRunsMeasured = s.tuneRuns() - s.tuneRunsAtMeasure;
    s.peakRss = peakRssMiB();  // before the oracle allocates
    if (s.tuneRunsMeasured != 0)
        std::cout << "WARNING: " << s.tuneRunsMeasured
                  << " tile-tuning runs inside the measured phase: lazy "
                     "set-up leaked into the timed numbers\n";

    int64_t empty = 0;
    for (const Response &r : s.responses)
        empty += r.empty ? 1 : 0;
    int64_t wrong = checkOutputs(s);
    int64_t failed = s.rejected + empty + wrong;
    std::cout << "checked: " << s.responses.size() << " responses, "
              << s.keys.size() << " distinct requests replayed serially; "
              << s.rejected << " rejected, " << empty << " empty, " << wrong
              << " wrong\n";

    size_t samples = 0;
    std::vector<Metric> metrics = endToEnd(s, failed, &samples);
    if (opt.trace) {
        std::vector<Metric> layers = perLayer(s);
        metrics.insert(metrics.end(), layers.begin(), layers.end());
        if (!opt.traceOut.empty() && !s.spans->writeChromeTrace(opt.traceOut))
            std::cerr << "perfbench: cannot write " << opt.traceOut << "\n";
    }
    if (!percentileSupported(samples, 90))
        std::cout << "note: " << samples << " latency samples support only "
                  << "p" << highestSupportedPercentile(samples) << "\n";
    printResult(failed == 0, s.attempted, failed, metrics, samples);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    // NGB_* variables are latched by static initializers that already
    // ran, so clearing them only takes effect in a fresh image.
    std::vector<std::string> cleared = scrubNgbEnvironment();
    if (!cleared.empty()) {
        std::cerr << "perfbench: cleared";
        for (const std::string &n : cleared)
            std::cerr << " " << n;
        std::cerr << "; re-executing on the default configuration\n";
        execv("/proc/self/exe", argv);
        std::perror("perfbench: execv");
        return 2;
    }
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
