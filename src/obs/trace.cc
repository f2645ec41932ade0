#include "obs/trace.h"

#include <algorithm>

#include "obs/chrome_trace.h"
#include "ops/op_types.h"
#include "platform/env.h"
#include "tensor/dtype.h"

namespace ngb {
namespace obs {

namespace detail {

std::atomic<bool> g_traceEnabled{platform::envFlag("NGB_TRACE")};

}  // namespace detail

void
setTraceEnabled(bool on)
{
    detail::g_traceEnabled.store(on, std::memory_order_relaxed);
}

const char *
spanKindName(SpanKind k)
{
    switch (k) {
    case SpanKind::Queue:
        return "queue";
    case SpanKind::Batch:
        return "batch";
    case SpanKind::Request:
        return "request";
    case SpanKind::Level:
        return "level";
    case SpanKind::Node:
        return "node";
    case SpanKind::Shard:
        return "shard";
    case SpanKind::Plan:
        return "plan";
    case SpanKind::Mark:
        return "mark";
    }
    return "span";
}

namespace {
thread_local uint64_t t_traceId = 0;
thread_local TraceBuffer *t_buffer = nullptr;
thread_local std::string *t_nameHint = nullptr;
}  // namespace

uint64_t
currentTraceId()
{
    return t_traceId;
}

TraceIdScope::TraceIdScope(uint64_t id) : saved_(t_traceId)
{
    t_traceId = id;
}

TraceIdScope::~TraceIdScope()
{
    t_traceId = saved_;
}

std::vector<SpanEvent>
TraceBuffer::snapshot() const
{
    uint64_t h = head_.load(std::memory_order_acquire);
    uint64_t cap = ring_.size();
    uint64_t n = h < cap ? h : cap;
    std::vector<SpanEvent> out;
    out.reserve(n);
    for (uint64_t i = h - n; i < h; ++i)
        out.push_back(ring_[i % cap]);
    return out;
}

Tracer &
Tracer::instance()
{
    // Leaked on purpose: threads may record (and their buffers must
    // stay valid) until process exit, after statics are destroyed.
    static Tracer *t = new Tracer();
    return *t;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now())
{
}

TraceBuffer &
Tracer::threadBuffer()
{
    if (t_buffer == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<TraceBuffer>(
            capacity_, static_cast<int>(buffers_.size())));
        t_buffer = buffers_.back().get();
        if (t_nameHint != nullptr)
            t_buffer->setName(*t_nameHint);
    }
    return *t_buffer;
}

void
Tracer::setThreadName(const std::string &name)
{
    if (t_buffer != nullptr) {
        t_buffer->setName(name);
        return;
    }
    // Defer: don't pay for a ring buffer on a thread that may never
    // record (pool workers are named unconditionally at spawn).
    if (t_nameHint == nullptr)
        t_nameHint = new std::string();  // leaked per thread, tiny
    *t_nameHint = name;
}

void
Tracer::setCapacity(size_t events)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = events > 0 ? events : 1;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &b : buffers_)
        b->clear();
    epoch_ = std::chrono::steady_clock::now();
}

std::vector<Tracer::ThreadEvents>
Tracer::collect() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ThreadEvents> out;
    out.reserve(buffers_.size());
    for (const auto &b : buffers_) {
        ThreadEvents te;
        te.tid = b->tid();
        te.name = b->name();
        te.dropped = b->dropped();
        te.events = b->snapshot();
        out.push_back(std::move(te));
    }
    return out;
}

uint64_t
Tracer::totalRecorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t n = 0;
    for (const auto &b : buffers_)
        n += b->recorded();
    return n;
}

uint64_t
Tracer::totalDropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t n = 0;
    for (const auto &b : buffers_)
        n += b->dropped();
    return n;
}

namespace {

std::string
spanDisplayName(const SpanEvent &ev)
{
    switch (ev.kind) {
    case SpanKind::Node:
        if (ev.fused && ev.label[0] != '\0')
            return ev.label;
        if (ev.op >= 0)
            return opKindName(static_cast<OpKind>(ev.op));
        break;
    case SpanKind::Shard:
        return "shard " + std::to_string(ev.a0) + "/" +
               std::to_string(ev.a1);
    case SpanKind::Level:
        return "level " + std::to_string(ev.a0);
    default:
        break;
    }
    if (ev.label[0] != '\0')
        return std::string(spanKindName(ev.kind)) + " " + ev.label;
    return spanKindName(ev.kind);
}

std::string
spanCategory(const SpanEvent &ev)
{
    switch (ev.kind) {
    case SpanKind::Node:
        if (ev.cat >= 0)
            return opCategoryName(static_cast<OpCategory>(ev.cat));
        return "kernel";
    case SpanKind::Queue:
    case SpanKind::Batch:
        return "serve";
    case SpanKind::Request:
    case SpanKind::Level:
    case SpanKind::Shard:
        return "exec";
    case SpanKind::Plan:
        return "plan";
    case SpanKind::Mark:
        return "mark";
    }
    return "span";
}

JsonDict
spanArgs(const SpanEvent &ev)
{
    JsonDict args;
    if (ev.traceId != 0)
        args.add("trace_id", ev.traceId);
    switch (ev.kind) {
    case SpanKind::Node:
        args.add("node", static_cast<int64_t>(ev.node));
        if (ev.backend != nullptr)
            args.add("backend", ev.backend);
        if (ev.fused)
            args.add("fused", true);
        if (ev.a0 > 0)
            args.add("numel", ev.a0);
        if (ev.a1 >= 0)
            args.add("arena_offset", ev.a1);
        if (ev.a2 >= 0)
            args.add("dtype",
                     dtypeName(static_cast<DType>(ev.a2)));
        break;
    case SpanKind::Queue:
        if (ev.label[0] != '\0')
            args.add("model", ev.label);
        args.add("depth_at_admit", ev.a0);
        break;
    case SpanKind::Batch:
        if (ev.label[0] != '\0')
            args.add("model", ev.label);
        args.add("batch_size", ev.a0);
        args.add("closed_by_timeout", ev.flag);
        break;
    case SpanKind::Request:
        args.add("slot", ev.a0);
        break;
    case SpanKind::Level:
        args.add("level", ev.a0);
        args.add("nodes", ev.a1);
        break;
    case SpanKind::Shard:
        args.add("shard", ev.a0);
        args.add("shards", ev.a1);
        break;
    case SpanKind::Plan:
        if (ev.label[0] != '\0')
            args.add("model", ev.label);
        if (ev.a0 > 0)
            args.add("nodes", ev.a0);
        if (ev.a1 > 0)
            args.add("arena_bytes", ev.a1);
        break;
    case SpanKind::Mark:
        break;
    }
    if (ev.hasCounters) {
        if (ev.countersMeasured) {
            args.add("cycles", ev.cCycles);
            args.add("instructions", ev.cInstr);
            args.add("llc_misses", ev.cCacheMiss);
            args.add("branch_misses", ev.cBranchMiss);
        } else {
            args.add("counters", "unavailable");
        }
    }
    return args;
}

}  // namespace

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    std::vector<ThreadEvents> threads = collect();
    ChromeTraceWriter w(os);
    w.processName(0, "ngb measured");
    for (const auto &t : threads)
        w.threadName(0, t.tid, t.name);
    for (const auto &t : threads) {
        for (const SpanEvent &ev : t.events) {
            if (ev.kind == SpanKind::Queue) {
                // Queue residencies of concurrent requests overlap on
                // the batcher track, which complete events would
                // render as bogus nesting — emit them as async pairs
                // tied by trace id instead.
                w.asyncBegin(spanDisplayName(ev), spanCategory(ev), 0,
                             t.tid, ev.traceId, ev.startUs,
                             spanArgs(ev));
                w.asyncEnd(spanDisplayName(ev), spanCategory(ev), 0,
                           t.tid, ev.traceId, ev.startUs + ev.durUs);
            } else {
                w.completeEvent(spanDisplayName(ev), spanCategory(ev),
                                0, t.tid, ev.startUs, ev.durUs,
                                spanArgs(ev));
            }
        }
        if (t.dropped > 0) {
            JsonDict args;
            args.add("dropped_spans", t.dropped);
            w.completeEvent("ring_dropped", "obs", 0, t.tid, 0.0, 0.0,
                            args);
        }
    }
    // Trace-level metadata: total and per-thread ring drops, so
    // consumers (tools/check_trace.py) can flag lossy traces without
    // scanning every event for ring_dropped markers.
    uint64_t dropped = 0;
    JsonDict per_thread;
    for (const auto &t : threads) {
        dropped += t.dropped;
        if (t.dropped > 0)
            per_thread.add(t.name, t.dropped);
    }
    JsonDict meta;
    meta.add("dropped_spans", dropped);
    if (dropped > 0)
        meta.addRaw("dropped_by_thread", per_thread.str());
    w.topLevelRaw("otherData", meta.str());
    w.finish();
}

}  // namespace obs
}  // namespace ngb
