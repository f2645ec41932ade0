#ifndef NGB_OPS_BACKEND_H
#define NGB_OPS_BACKEND_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "graph/node.h"
#include "graph/param_store.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "ops/allocator.h"
#include "ops/op_types.h"
#include "tensor/tensor.h"

/**
 * @file
 * The pluggable kernel-backend API.
 *
 * A Backend is a named KernelRegistry (OpKind -> KernelFn) with an
 * optional fallback chain. Executors dispatch every node through the
 * active backend instead of a hard-wired switch, so kernel sets can be
 * swapped, compared, and selectively optimized: the "reference"
 * backend carries the straightforward kernels in src/ops (the
 * numerical oracle), the "simd" backend overrides the hottest
 * operators and falls back to reference for everything else.
 *
 * Registration happens either at first-use time inside
 * referenceBackend()/simdBackend() (the built-ins) or by
 * explicitly installing kernels into a caller-owned Backend
 * (registerKernel) — e.g. a test stubbing one operator while
 * inheriting the rest through the fallback chain.
 */

namespace ngb {

class Backend;
class ParallelRegion;

/**
 * Everything one kernel invocation may read: the node (attributes,
 * input/output shapes), a resolver from graph Values to computed
 * tensors, and the deterministic ParamStore. Kernels are pure with
 * respect to graph state — all reads go through in()/param() — so the
 * serial Executor, the parallel runtime, and the serving engines share
 * one dispatch path per backend and stay bit-identical to each other.
 */
struct KernelContext {
    const Node &node;
    const std::function<const Tensor &(const Value &)> &input;
    ParamStore &params;

    /**
     * The backend the executor is dispatching through (the head of the
     * fallback chain, not the backend whose registry resolved this
     * kernel). Fused-chain kernels dispatch their member operators
     * through it so per-op overrides apply inside fused groups too.
     * Null in ad-hoc contexts; treat as "use your own backend".
     */
    const Backend *backend = nullptr;

    /**
     * Output-buffer provider installed by the executor. Null means
     * heap allocation (the serial Executor; out() still works); the
     * runtime executors install an ArenaAllocator whenever their
     * memory plan places any output, so a non-null alloc doubles as
     * the "arena execution" signal for the few kernels whose
     * copy-vs-view policy depends on it (Split, fused layout tails).
     */
    Allocator *alloc = nullptr;

    /**
     * Intra-op parallel region installed by the executor, or null for
     * serial execution (the default everywhere). Kernels that can
     * shard their iteration space — the GEMM family — run it across
     * par->threads() pool workers; every other kernel ignores it.
     * Sharding must never split a reduction (GEMM: M/N tiles only,
     * never K) so outputs stay bit-identical at every thread count.
     */
    const ParallelRegion *par = nullptr;

    /**
     * Destination buffer for output @p i of this node: the planned
     * arena slot when an arena allocator is installed and the value is
     * planned, else a fresh uninitialized heap tensor. Kernels must
     * fully write whatever they claim (poison-fill catches violations).
     */
    Tensor out(size_t i = 0) const
    {
        return alloc ? alloc->allocate(node, i)
                     : Tensor::empty(node.outShapes[i],
                                     node.outDtypes[i]);
    }

    /** Resolved tensor of input @p i. */
    const Tensor &in(size_t i) const { return input(node.inputs[i]); }

    size_t numInputs() const { return node.inputs.size(); }

    /** Materialized parameter @p i of the node. */
    const Tensor &param(size_t i) const { return params.get(node, i); }

    /**
     * The trailing rank-1 parameter when the node carries more than
     * one (the bias convention of Linear/Conv2d), else undefined.
     */
    Tensor optBias() const
    {
        return node.paramShapes.size() > 1
                   ? params.get(node, node.paramShapes.size() - 1)
                   : Tensor();
    }

    int attrInt(const std::string &key, int64_t def = 0) const
    {
        return static_cast<int>(node.attrs.getI(key, def));
    }

    float attrFloat(const std::string &key, double def = 0.0) const
    {
        return static_cast<float>(node.attrs.getF(key, def));
    }
};

/**
 * One kernel: consumes a KernelContext, produces every output of the
 * node (most ops one tensor; Split and TopK several). std::function so
 * ad-hoc backends can register capturing lambdas; the built-in
 * backends register capture-free ones.
 */
using KernelFn = std::function<std::vector<Tensor>(const KernelContext &)>;

/** Wrap the common single-tensor result as a kernel output vector. */
inline std::vector<Tensor>
singleOutput(Tensor t)
{
    std::vector<Tensor> out;
    out.push_back(std::move(t));
    return out;
}

/**
 * Optional one-time per-graph warm-up a backend runs before traffic:
 * pre-build whatever ParamStore::derived state its kernels memoize
 * (e.g. packed weight transposes), so per-request timings measure the
 * kernels alone and not first-touch preprocessing.
 */
using PrepareFn = std::function<void(const Graph &, ParamStore &)>;

/**
 * Optional per-node filter on a registered kernel. Returning false
 * declines the node: lookup continues down the fallback chain, so a
 * fast kernel that does not accelerate some static form of its op
 * (an attribute, a rank) hands it to the tier that runs it, and the
 * traced span names that tier. Runtime-only conditions (input
 * contiguity, broadcasting) stay inside the kernel.
 */
using NodeFilter = bool (*)(const Node &);

/** A plain OpKind -> KernelFn table (each entry optionally filtered). */
class KernelRegistry
{
  public:
    /** Install (or replace) the kernel for @p k. */
    void add(OpKind k, KernelFn fn, NodeFilter accepts = nullptr)
    {
        fns_[k] = Entry{std::move(fn), accepts};
    }

    /**
     * The kernel for @p k, or nullptr when not registered — or when
     * @p node is given and the entry's filter declines it.
     */
    const KernelFn *find(OpKind k, const Node *node = nullptr) const
    {
        auto it = fns_.find(k);
        if (it == fns_.end())
            return nullptr;
        const Entry &e = it->second;
        return node && e.accepts && !e.accepts(*node) ? nullptr : &e.fn;
    }

    bool contains(OpKind k) const { return fns_.count(k) != 0; }
    size_t size() const { return fns_.size(); }

  private:
    struct Entry {
        KernelFn fn;
        NodeFilter accepts;
    };
    std::map<OpKind, Entry> fns_;
};

/**
 * A named kernel set with fallback. Lookup walks this backend's own
 * registry, then the fallback chain; a miss everywhere is a clear
 * error naming the op and the backend, never UB. Backends are
 * immutable once shared across threads: register everything before
 * handing the Backend to an executor.
 */
class Backend
{
  public:
    explicit Backend(std::string name, const Backend *fallback = nullptr)
        : name_(std::move(name)), fallback_(fallback)
    {
    }

    const std::string &name() const { return name_; }
    const Backend *fallback() const { return fallback_; }

    /** Explicitly install a kernel for @p k in this backend; a
     *  non-null @p accepts restricts it to the nodes it accepts. */
    void registerKernel(OpKind k, KernelFn fn, NodeFilter accepts = nullptr)
    {
        reg_.add(k, std::move(fn), accepts);
    }

    /** True when THIS backend registers @p k (fallback not consulted). */
    bool handles(OpKind k) const { return reg_.contains(k); }

    /** Number of ops this backend itself registers. */
    size_t numKernels() const { return reg_.size(); }

    /**
     * Resolve the kernel for @p k through the fallback chain; throws
     * a descriptive error when no backend in the chain handles it.
     * @p owner, when non-null, receives the backend in the chain whose
     * registry holds the kernel — the tier that actually runs. Node
     * filters are not consulted: this is the first kernel registered
     * for @p k.
     */
    const KernelFn &kernelFor(OpKind k,
                              const Backend **owner = nullptr) const
    {
        return resolve(k, nullptr, owner);
    }

    /** As kernelFor(OpKind), skipping kernels whose filter declines
     *  @p node — the lookup dispatch uses. */
    const KernelFn &kernelFor(const Node &node,
                              const Backend **owner = nullptr) const
    {
        return resolve(node.kind, &node, owner);
    }

    /**
     * Dispatch one node evaluation through this backend. This is the
     * single dispatch seam every executor funnels through, so it is
     * also where the measured tracer AND the hardware-counter sampler
     * hook in: when both are off the guard inlines to two relaxed
     * loads and dispatch proceeds untouched; when on, the out-of-line
     * traced path records a Node span (op kind, the backend whose
     * kernel ran, fused flag, output numel, arena offset) and/or a
     * CounterScope (counter payload + per-category aggregation)
     * around the kernel. Fused kernels re-dispatch their members
     * through ctx.backend, so member spans nest inside the group span
     * with no extra plumbing.
     */
    std::vector<Tensor> eval(const KernelContext &ctx) const
    {
        if (obs::traceEnabled() || obs::perfEnabled())
            return evalTraced(ctx);
        return kernelFor(ctx.node)(ctx);
    }

    /** Install the per-graph warm-up hook. */
    void setPrepare(PrepareFn fn) { prepare_ = std::move(fn); }

    /**
     * Run every prepare hook along the fallback chain for @p g.
     * Idempotent (hooks memoize through ParamStore::derived); the
     * executors call this during their untimed warm-up/planning phase.
     */
    void prepare(const Graph &g, ParamStore &params) const
    {
        for (const Backend *b = this; b; b = b->fallback_)
            if (b->prepare_)
                b->prepare_(g, params);
    }

  private:
    const KernelFn &resolve(OpKind k, const Node *node,
                            const Backend **owner) const;

    /** Slow path of eval(): record a span around the kernel call. */
    std::vector<Tensor> evalTraced(const KernelContext &ctx) const;

    std::string name_;
    const Backend *fallback_ = nullptr;
    KernelRegistry reg_;
    PrepareFn prepare_;
};

/** The reference backend: every operator, straightforward kernels. */
const Backend &referenceBackend();

/**
 * The fast kernel tier: portable / AVX2 / AVX-512 / NEON kernels for
 * the GEMM family (fused epilogues included), normalization, softmax,
 * the element-wise and activation ops, and executable int8, selected
 * by runtime CPU detection (platform::activeIsa) and tile-tuned
 * through the persistent TuningCache; falls back to reference per-op
 * for everything else (conv, pooling, layout, ...).
 */
const Backend &simdBackend();

/**
 * The process-wide default: $NGB_BACKEND when set (so a CI leg can run
 * the whole suite under another backend), else reference.
 */
const Backend &defaultBackend();

/** Look up a built-in backend by name; throws listing known names. */
const Backend &findBackend(const std::string &name);

/** Names of the built-in backends, lookup order. */
std::vector<std::string> backendNames();

}  // namespace ngb

#endif  // NGB_OPS_BACKEND_H
