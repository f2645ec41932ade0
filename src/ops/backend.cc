#include "ops/backend.h"

#include <cstdlib>
#include <stdexcept>

namespace ngb {

const KernelFn &
Backend::resolve(OpKind k, const Node *node, const Backend **owner) const
{
    for (const Backend *b = this; b; b = b->fallback_)
        if (const KernelFn *fn = b->reg_.find(k, node)) {
            if (owner)
                *owner = b;
            return *fn;
        }
    std::string chain = name_;
    for (const Backend *b = fallback_; b; b = b->fallback_)
        chain += " -> " + b->name_;
    throw std::runtime_error("no kernel registered for op '" +
                             opKindName(k) + "' in backend '" + chain +
                             "'");
}

std::vector<Tensor>
Backend::evalTraced(const KernelContext &ctx) const
{
    const Backend *owner = this;
    const KernelFn &kernel = kernelFor(ctx.node, &owner);
    obs::ScopedSpan span(obs::SpanKind::Node);
    obs::SpanEvent &ev = span.ev();
    ev.op = static_cast<int16_t>(ctx.node.kind);
    ev.cat = static_cast<int16_t>(ctx.node.category());
    ev.node = ctx.node.id;
    ev.fused = ctx.node.kind == OpKind::Fused;
    // The tier whose kernel runs, not the requested backend: an op the
    // requested backend does not override is served by its fallback.
    ev.backend = owner->name_.c_str();
    if (ev.fused)
        ev.setLabel(ctx.node.name);
    if (!ctx.node.outShapes.empty())
        ev.a0 = ctx.node.outShapes[0].numel();
    ev.a1 = ctx.alloc ? ctx.alloc->plannedOffset(ctx.node, 0) : -1;
    // Output dtype, so traces distinguish int8 execution (quantized
    // GEMMs, Q/DQ) from float kernels of the same op kind.
    ev.a2 = ctx.node.outDtypes.empty()
                ? -1
                : static_cast<int64_t>(ctx.node.outDtypes[0]);
    // Fused members (re-dispatched with synthetic negative ids) get a
    // counter payload on their span but do NOT aggregate: the
    // enclosing group scope already counts their work once, under the
    // group's category — the same single-counting rule the time
    // profile applies to node_us.
    obs::CounterScope counters(
        span.armed() ? &span.ev() : nullptr,
        ctx.node.id < 0 ? -1 : static_cast<int>(ctx.node.category()));
    return kernel(ctx);
}

const Backend &
defaultBackend()
{
    static const Backend &backend = []() -> const Backend & {
        const char *env = std::getenv("NGB_BACKEND");
        return env && *env ? findBackend(env) : referenceBackend();
    }();
    return backend;
}

namespace {

/** The single source of truth for the built-in backends. */
struct BuiltinBackend {
    const char *name;
    const Backend &(*get)();
};

constexpr BuiltinBackend kBuiltins[] = {
    {"reference", referenceBackend},
    {"simd", simdBackend},
};

}  // namespace

const Backend &
findBackend(const std::string &name)
{
    for (const BuiltinBackend &b : kBuiltins)
        if (name == b.name)
            return b.get();
    std::string known;
    for (const std::string &n : backendNames())
        known += (known.empty() ? "" : ", ") + n;
    throw std::runtime_error("unknown backend '" + name +
                             "' (known backends: " + known + ")");
}

std::vector<std::string>
backendNames()
{
    std::vector<std::string> names;
    for (const BuiltinBackend &b : kBuiltins)
        names.push_back(b.name);
    return names;
}

}  // namespace ngb
