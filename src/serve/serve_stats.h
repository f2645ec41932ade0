#ifndef NGB_SERVE_SERVE_STATS_H
#define NGB_SERVE_SERVE_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/perf.h"
#include "quant/quant_mode.h"

namespace ngb {

/**
 * Per-request latency record, in the units a user of the server
 * experiences: queueUs is arrival -> batch close (admission +
 * batching delay), execUs is batch close -> completion (the wall time
 * of the batch the request rode in, including any engine build on a
 * cache miss). totalUs() is end-to-end.
 */
struct RequestRecord {
    uint64_t id = 0;
    std::string model;
    uint64_t seed = 0;
    double queueUs = 0;
    double execUs = 0;
    int batchSize = 1;  ///< size of the batch this request rode in

    double totalUs() const { return queueUs + execUs; }
};

/** One dispatched batch. */
struct BatchRecord {
    std::string model;
    int size = 0;
    double wallUs = 0;
    bool closedByTimeout = false;  ///< deadline fired before max_batch
};

/** Queue depth observed at one batch-dispatch instant. */
struct QueueDepthSample {
    double tUs = 0;  ///< since serving start
    size_t depth = 0;
};

/**
 * Everything the serving layer measures over one run: admission
 * counters, per-request latency records, per-batch records, queue
 * depth over time, and engine-cache behavior. The profiler's serve
 * report (src/profiler/serve_report.h) turns this into the
 * human-readable and JSON outputs.
 */
struct ServeStats {
    double durationUs = 0;  ///< first submission -> queue drained

    int64_t offered = 0;    ///< requests the load generator produced
    int64_t admitted = 0;   ///< accepted into the queue
    int64_t rejected = 0;   ///< bounced by admission control
    int64_t completed = 0;  ///< served to completion

    std::vector<RequestRecord> requests;  ///< completed, dispatch order
    std::vector<BatchRecord> batches;

    /**
     * Queue depth over time, timestamps monotonic since session start
     * (the same t0 durationUs measures from): event-driven samples
     * taken at every batch dispatch, merged with fixed-cadence samples
     * from the serve loop's sampler thread when one runs.
     */
    std::vector<QueueDepthSample> depthSamples;

    /** Sampler thread cadence (0 = no sampler ran). */
    int64_t samplerCadenceUs = 0;
    std::map<int, int64_t> batchSizeHist;
    std::map<std::string, int64_t> completedByModel;

    int64_t cacheHits = 0;
    int64_t cacheMisses = 0;
    double engineBuildUs = 0;  ///< total planning time on cache misses

    // -- Memory behaviour of the serving session ----------------------

    int64_t tensorAllocs = 0;    ///< Storage heap allocs during serving
    int64_t tensorAllocBytes = 0;
    int64_t arenaBlocks = 0;     ///< pooled blocks across all engines
    int64_t arenaBlockBytes = 0; ///< total bytes of those blocks

    // -- Quantization of the served engines ---------------------------

    std::string quantMode = "off";  ///< EngineConfig::quant compiled in
    /** Census summed across cached engines (times stay zero). */
    quant::QuantExecStats quant;

    /**
     * Hardware-counter aggregate of the session's kernel work (zeroed
     * stats with enabled=false when --perf was off; measured=false
     * with a status string on hosts without perf_event_open access).
     */
    obs::PerfCounterStats perf;

    /** Session-mean counter footprint of one completed request. */
    double cyclesPerRequest() const
    {
        return completed > 0 ? static_cast<double>(perf.total.cycles) /
                                   static_cast<double>(completed)
                             : 0;
    }

    /**
     * Heap tensor allocations per completed request over the whole
     * session (includes warm-up: engine builds and pool growth — a
     * steady-state loop adds zero, so this tends to 0 as sessions
     * lengthen).
     */
    double allocsPerRequest() const
    {
        return completed > 0 ? static_cast<double>(tensorAllocs) /
                                   static_cast<double>(completed)
                             : static_cast<double>(tensorAllocs);
    }

    double throughputRps() const
    {
        return durationUs > 0
                   ? 1e6 * static_cast<double>(completed) / durationUs
                   : 0;
    }

    double cacheHitRate() const
    {
        int64_t total = cacheHits + cacheMisses;
        return total > 0
                   ? static_cast<double>(cacheHits) /
                         static_cast<double>(total)
                   : 0;
    }

    double meanBatchSize() const
    {
        return batches.empty() ? 0
                               : static_cast<double>(completed) /
                                     static_cast<double>(batches.size());
    }
};

}  // namespace ngb

#endif  // NGB_SERVE_SERVE_STATS_H
