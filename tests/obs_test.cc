#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/executor.h"
#include "obs/chrome_trace.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/backend.h"
#include "runtime/request_util.h"
#include "serve/serve_driver.h"

namespace ngb {
namespace {

using namespace ngb::serve;

// Every suite here is named Obs* on purpose: the TSan CI leg runs
// exactly --gtest_filter='Obs*' to put the concurrency tests (and
// only code that is meant to be concurrency-clean) under the race
// detector.

/** RAII process-flag toggles so a failing test can't leak state. */
struct TraceOn {
    TraceOn() { obs::setTraceEnabled(true); }
    ~TraceOn() { obs::setTraceEnabled(false); }
};
struct MetricsOn {
    MetricsOn() { obs::setMetricsEnabled(true); }
    ~MetricsOn() { obs::setMetricsEnabled(false); }
};

// ---- json_util -------------------------------------------------------------

TEST(ObsJsonTest, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(obs::jsonEscape(std::string("x\x01y", 3)), "x\\u0001y");
    EXPECT_EQ(obs::jsonQuote("m\"odel"), "\"m\\\"odel\"");
}

TEST(ObsJsonTest, NumbersTrimTrailingZerosAndDegradeNonFinite)
{
    EXPECT_EQ(obs::jsonNumber(2.0), "2");
    EXPECT_EQ(obs::jsonNumber(0.5), "0.5");
    EXPECT_EQ(obs::jsonNumber(1.23456, 3), "1.235");
    EXPECT_EQ(obs::jsonNumber(-4.25), "-4.25");
    EXPECT_EQ(obs::jsonNumber(std::nan("")), "0");
    EXPECT_EQ(obs::jsonNumber(INFINITY), "0");
}

TEST(ObsJsonTest, DictBuildsOrderedObject)
{
    obs::JsonDict d;
    EXPECT_TRUE(d.empty());
    d.add("s", "a\"b").add("b", true).add("n", int64_t{-3});
    d.add("f", 1.5).addRaw("r", "[1,2]");
    EXPECT_EQ(d.str(),
              "{\"s\":\"a\\\"b\",\"b\":true,\"n\":-3,\"f\":1.5,"
              "\"r\":[1,2]}");
}

// ---- histogram -------------------------------------------------------------

TEST(ObsHistogramTest, CountSumMinMaxAreExact)
{
    obs::Histogram h;
    for (double v : {1.0, 2.0, 4.0, 8.0})
        h.observe(v);
    obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 4);
    EXPECT_DOUBLE_EQ(s.sum, 15.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 8.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.75);
}

TEST(ObsHistogramTest, EmptySnapshotIsZero)
{
    obs::Histogram h;
    EXPECT_EQ(h.snapshot().count, 0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(ObsHistogramTest, PercentilesTrackSortedVectorWithinBucketError)
{
    // Log-normal latencies spanning several octaves — the shape the
    // log-bucketed layout exists for. With 16 sub-buckets per octave
    // a bucket is 2^(1/16) ~ 4.4% wide; interpolation lands inside
    // it, so 6% relative tolerance bounds the design error with
    // headroom for the interpolation itself.
    std::mt19937_64 rng(7);
    std::lognormal_distribution<double> dist(std::log(800.0), 0.9);
    obs::Histogram h;
    std::vector<double> exact;
    for (int i = 0; i < 20000; ++i) {
        double v = dist(rng);
        h.observe(v);
        exact.push_back(v);
    }
    std::sort(exact.begin(), exact.end());
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
        double want =
            exact[static_cast<size_t>(q * (exact.size() - 1))];
        double got = h.percentile(q);
        EXPECT_NEAR(got, want, want * 0.06) << "q=" << q;
    }
    // Quantile edges clamp to the observed extremes, not bucket walls.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), exact.front());
    EXPECT_DOUBLE_EQ(h.percentile(1.0), exact.back());
}

TEST(ObsHistogramTest, BucketBoundsContainTheirValues)
{
    for (double v : {0.01, 1.0, 3.5, 1000.0, 1e9}) {
        obs::Histogram h;
        h.observe(v);
        obs::Histogram::Snapshot s = h.snapshot();
        int bucket = -1;
        for (int i = 0; i < obs::Histogram::kBuckets; ++i)
            if (s.counts[i] > 0)
                bucket = i;
        ASSERT_GE(bucket, 0) << v;
        EXPECT_GE(v, obs::Histogram::bucketLo(bucket)) << v;
        EXPECT_LT(v, obs::Histogram::bucketHi(bucket)) << v;
    }
}

// ---- registry + exporters --------------------------------------------------

TEST(ObsMetricsRegistryTest, SnapshotsRenderAsJsonAndPrometheus)
{
    auto &reg = obs::MetricsRegistry::instance();
    reg.counter("obs_test.count").inc(3);
    reg.gauge("obs_test.level").set(-2);
    reg.histogram("obs_test.lat_us").observe(250.0);

    std::ostringstream js;
    reg.writeJson(js);
    std::string j = js.str();
    EXPECT_NE(j.find("\"obs_test.count\": 3"), std::string::npos) << j;
    EXPECT_NE(j.find("\"obs_test.level\": -2"), std::string::npos) << j;
    EXPECT_NE(j.find("\"obs_test.lat_us\""), std::string::npos);
    EXPECT_NE(j.find("\"p99\""), std::string::npos);
    // Provider gauges (tensor heap, scratch high-water) ride along.
    EXPECT_NE(j.find("\"tensor.live_bytes\""), std::string::npos);

    std::ostringstream pr;
    reg.writePrometheus(pr);
    std::string p = pr.str();
    EXPECT_NE(p.find("ngb_obs_test_count 3"), std::string::npos) << p;
    EXPECT_NE(p.find("# TYPE ngb_obs_test_count counter"),
              std::string::npos);
    EXPECT_NE(p.find("ngb_obs_test_lat_us{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(p.find("ngb_obs_test_lat_us_count 1"), std::string::npos);
}

TEST(ObsChromeTraceTest, WriterEmitsParseableEnvelopeAndEvents)
{
    std::ostringstream os;
    {
        obs::ChromeTraceWriter w(os);
        obs::JsonDict args;
        args.add("node", 7);
        w.processName(0, "test proc");
        w.threadName(0, 3, "worker-3");
        w.completeEvent("soft\"max", "Activation", 0, 3, 10.0, 2.5,
                        args);
        w.asyncBegin("queue", "serve", 0, obs::TraceTid("batcher"), 42,
                     1.0, obs::JsonDict());
        w.asyncEnd("queue", "serve", 0, obs::TraceTid("batcher"), 42,
                   5.0);
        w.finish();
    }
    std::string s = os.str();
    EXPECT_EQ(s.rfind("{\"traceEvents\":[\n", 0), 0u) << s;
    EXPECT_NE(s.find("],\"displayTimeUnit\":\"ms\"}\n"),
              std::string::npos);
    EXPECT_NE(s.find("\"name\":\"soft\\\"max\",\"cat\":\"Activation\","
                     "\"ph\":\"X\",\"pid\":0,\"tid\":3,\"ts\":10,"
                     "\"dur\":2.5,\"args\":{\"node\":7}"),
              std::string::npos)
        << s;
    EXPECT_NE(s.find("\"ph\":\"b\",\"pid\":0,\"tid\":\"batcher\","
                     "\"id\":42"),
              std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(s.find("\"args\":{\"name\":\"worker-3\"}"),
              std::string::npos);
}

// ---- tracer ----------------------------------------------------------------

TEST(ObsRingTest, WrapsOverwritingOldestAndCountsDrops)
{
    obs::TraceBuffer buf(8, 0);
    for (int i = 0; i < 20; ++i) {
        obs::SpanEvent ev;
        ev.a0 = i;
        buf.record(ev);
    }
    EXPECT_EQ(buf.recorded(), 20u);
    EXPECT_EQ(buf.dropped(), 12u);
    std::vector<obs::SpanEvent> got = buf.snapshot();
    ASSERT_EQ(got.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(got[static_cast<size_t>(i)].a0, 12 + i);  // oldest first
    buf.clear();
    EXPECT_EQ(buf.recorded(), 0u);
    EXPECT_TRUE(buf.snapshot().empty());
}

TEST(ObsTraceIdTest, ScopesNestAndRestore)
{
    EXPECT_EQ(obs::currentTraceId(), 0u);
    {
        obs::TraceIdScope outer(11);
        EXPECT_EQ(obs::currentTraceId(), 11u);
        {
            obs::TraceIdScope inner(22);
            EXPECT_EQ(obs::currentTraceId(), 22u);
        }
        EXPECT_EQ(obs::currentTraceId(), 11u);
    }
    EXPECT_EQ(obs::currentTraceId(), 0u);
}

TEST(ObsScopedSpanTest, RecordsOnlyWhenEnabled)
{
    auto &tracer = obs::Tracer::instance();
    uint64_t before = tracer.totalRecorded();
    // Explicitly off first: the suite must hold even when the process
    // inherited $NGB_TRACE=1 (the obs-on CI leg).
    obs::setTraceEnabled(false);
    {
        obs::ScopedSpan off(obs::SpanKind::Mark);
        EXPECT_FALSE(off.armed());
    }
    EXPECT_EQ(tracer.totalRecorded(), before);

    TraceOn on;
    {
        obs::ScopedSpan span(obs::SpanKind::Mark);
        ASSERT_TRUE(span.armed());
        span.ev().setLabel("a label too long to fit in the array");
    }
    EXPECT_EQ(tracer.totalRecorded(), before + 1);
}

// ---- concurrency (the TSan targets) ----------------------------------------

TEST(ObsMetricsConcurrencyTest, ProducersRaceASnapshottingReader)
{
    auto &reg = obs::MetricsRegistry::instance();
    obs::Counter &c = reg.counter("obs_test.race_count");
    obs::Histogram &h = reg.histogram("obs_test.race_us");
    c.reset();
    h.reset();

    constexpr int kThreads = 4;
    constexpr int kOps = 20000;
    std::atomic<bool> done{false};
    std::thread reader([&] {
        // Hammer mid-run reads the whole time producers run: the
        // point of the registry is that this is safe and the numbers
        // are coherent enough to render.
        while (!done.load(std::memory_order_acquire)) {
            std::ostringstream os;
            reg.writeJson(os);
            obs::Histogram::Snapshot s = h.snapshot();
            EXPECT_GE(s.percentile(0.99), 0.0);
            EXPECT_LE(s.count,
                      static_cast<int64_t>(kThreads) * kOps);
        }
    });
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t)
        producers.emplace_back([&, t] {
            for (int i = 0; i < kOps; ++i) {
                c.inc();
                h.observe(static_cast<double>((t + 1) * 100 + i % 97));
            }
        });
    for (std::thread &t : producers)
        t.join();
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(c.value(), int64_t{kThreads} * kOps);
    obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, int64_t{kThreads} * kOps);
    uint64_t bucket_total = 0;
    for (uint64_t b : s.counts)
        bucket_total += b;
    EXPECT_EQ(bucket_total, static_cast<uint64_t>(kThreads) * kOps);
}

TEST(ObsTracerConcurrencyTest, ParallelProducersThenQuiescentExport)
{
    TraceOn on;
    auto &tracer = obs::Tracer::instance();
    uint64_t before = tracer.totalRecorded();

    constexpr int kThreads = 4;
    constexpr int kSpans = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([t] {
            obs::Tracer::instance().setThreadName(
                "obs-test-" + std::to_string(t));
            obs::TraceIdScope id(static_cast<uint64_t>(t) + 1);
            for (int i = 0; i < kSpans; ++i) {
                obs::ScopedSpan span(obs::SpanKind::Mark);
                span.ev().setLabel("concurrent");
                span.ev().a0 = i;
            }
        });
    for (std::thread &t : threads)
        t.join();

    // join() is the quiescence point: every producer's release store
    // happened-before this read.
    EXPECT_EQ(tracer.totalRecorded() - before,
              static_cast<uint64_t>(kThreads) * kSpans);
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    std::string s = os.str();
    EXPECT_EQ(s.rfind("{\"traceEvents\":[\n", 0), 0u);
    EXPECT_NE(s.find("],\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    // Drop accounting rides in the envelope's otherData block.
    EXPECT_NE(s.find("\"otherData\":{\"dropped_spans\":"),
              std::string::npos);
    EXPECT_EQ(s.substr(s.size() - 2), "}\n");
    EXPECT_NE(s.find("obs-test-0"), std::string::npos);
    EXPECT_NE(s.find("\"trace_id\":" + std::to_string(kThreads)),
              std::string::npos);
}

// ---- kernel spans name the tier that ran -----------------------------------

TEST(ObsTraceTest, KernelSpansNameTheBackendWhoseKernelRan)
{
    // simd overrides MatMul but not Conv2d: under a traced simd run the
    // conv span must say reference (the fallback that served it), the
    // matmul span simd. Static forms simd declines — the legacy modeled
    // Int8Linear, softmax over a non-last dim — resolve to reference
    // too; a runtime-only fallback inside a simd kernel (a
    // broadcasting Add) is attributed to simd.
    Graph g;
    GraphBuilder b(g);
    b.output(b.conv2d(b.input(Shape{1, 2, 6, 6}), 4, 3, 1, 1, 1, true,
                      "conv"));
    b.output(b.matmul(b.input(Shape{4, 5}), b.input(Shape{5, 3})));
    b.output(b.int8Linear(b.input(Shape{2, 8}), 4));
    b.output(b.softmax(b.input(Shape{3, 5}), 0));
    b.output(b.add(b.input(Shape{3, 5}), b.input(Shape{1, 5})));
    std::vector<Tensor> inputs = makeRequestInputs(g, 3);
    Executor ex(g, simdBackend());

    TraceOn trace_on;
    obs::Tracer::instance().clear();
    ex.run(inputs);
    std::map<OpKind, std::string> tier;
    for (const auto &te : obs::Tracer::instance().collect())
        for (const obs::SpanEvent &ev : te.events)
            if (ev.kind == obs::SpanKind::Node && ev.backend)
                tier[static_cast<OpKind>(ev.op)] = ev.backend;
    EXPECT_EQ(tier[OpKind::Conv2d], "reference");
    EXPECT_EQ(tier[OpKind::MatMul], "simd");
    EXPECT_EQ(tier[OpKind::Int8Linear], "reference");
    EXPECT_EQ(tier[OpKind::Softmax], "reference");
    EXPECT_EQ(tier[OpKind::Add], "simd");
}

// ---- end-to-end determinism ------------------------------------------------

/**
 * Per-request span structure of everything currently recorded: for
 * each trace id, the sorted (op, node) list of its kernel spans. The
 * shape of the work is deterministic under a fixed seed even though
 * timings and batch composition are not.
 */
std::map<uint64_t, std::vector<std::pair<int, int>>>
spanStructure()
{
    std::map<uint64_t, std::vector<std::pair<int, int>>> by_request;
    for (const auto &te : obs::Tracer::instance().collect()) {
        EXPECT_EQ(te.dropped, 0u);
        for (const obs::SpanEvent &ev : te.events)
            if (ev.kind == obs::SpanKind::Node && ev.traceId != 0)
                by_request[ev.traceId].push_back(
                    {static_cast<int>(ev.op), ev.node});
    }
    for (auto &[id, ops] : by_request)
        std::sort(ops.begin(), ops.end());
    return by_request;
}

TEST(ObsServeDeterminismTest, IdenticalSeedsProduceIdenticalSpanTrees)
{
    TraceOn trace_on;
    MetricsOn metrics_on;
    ServeConfig cfg;
    cfg.mix = parseMix("vit_b:2,gpt2:1");
    cfg.rps = 120;
    cfg.durationS = 0.2;
    cfg.policy.maxBatch = 4;
    cfg.policy.timeoutUs = 1000;
    cfg.queueDepth = 4096;
    cfg.engine.scale = 16;
    cfg.seed = 99;
    cfg.samplerCadenceUs = 5000;
    ThreadPool pool(2);

    obs::Tracer::instance().clear();
    ServeResult a = runServe(cfg, pool);
    auto tree_a = spanStructure();

    obs::Tracer::instance().clear();
    ServeResult b = runServe(cfg, pool);
    auto tree_b = spanStructure();

    ASSERT_GT(a.stats.completed, 0);
    EXPECT_EQ(a.stats.completed, b.stats.completed);
    ASSERT_FALSE(tree_a.empty());
    // Same request ids, and per request the same kernels over the
    // same nodes — batching/timing may differ, structure may not.
    EXPECT_EQ(tree_a, tree_b);
    // Every completed request shows up as a traced span tree.
    EXPECT_EQ(tree_a.size(),
              static_cast<size_t>(a.stats.completed));
}

}  // namespace
}  // namespace ngb
