#ifndef NGB_GRAPH_PARAM_STORE_H
#define NGB_GRAPH_PARAM_STORE_H

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

#include "graph/graph.h"
#include "tensor/tensor.h"

namespace ngb {

/**
 * Deterministic synthetic parameters for a graph's operators.
 *
 * Weight values never affect the paper's metric (latency share), but
 * concrete execution needs sane parameters: normalization scales are
 * ones, shifts/means are zeros, variances are ones, and projection
 * weights are seeded Gaussians so results are reproducible.
 *
 * get() is guarded by a mutex so concurrent node evaluation is safe;
 * the parallel runtime additionally calls materialize() up front so
 * hot-path lookups are contention-free cache hits.
 */
class ParamStore
{
  public:
    explicit ParamStore(uint64_t seed = 0x5eed) : seed_(seed) {}

    /** Materialize (and cache) parameter @p index of node @p n. */
    const Tensor &get(const Node &n, size_t index);

    /** Pre-fill the cache with every parameter of every node in @p g. */
    void materialize(const Graph &g);

    /**
     * Memoized derived tensor for (@p n, @p slot): @p build runs once
     * (under the store mutex), later calls return the cached result.
     * Backends use this to amortize per-node preprocessing of
     * immutable parameters — e.g. the simd backend's packed
     * weight transpose — across every request of a long-lived engine.
     * @p build must be deterministic: concurrent executors share the
     * cache, so whoever builds first defines the value for everyone.
     */
    const Tensor &derived(const Node &n, size_t slot,
                          const std::function<Tensor()> &build);

  private:
    uint64_t seed_;
    std::mutex mutex_;
    std::map<std::pair<int, size_t>, Tensor> cache_;
    std::map<std::pair<int, size_t>, Tensor> derived_;
};

}  // namespace ngb

#endif  // NGB_GRAPH_PARAM_STORE_H
