#include "profiler/serve_report.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <string>

#include "obs/json_util.h"
#include "obs/metrics.h"

namespace ngb {

namespace {

struct LatencySplit {
    std::vector<double> total, queue, exec;  ///< each sorted ascending
};

/** Quantile of an already-sorted vector (no per-call copy/sort). */
double
percentileSorted(const std::vector<double> &values, double q)
{
    if (values.empty())
        return 0;
    q = std::min(std::max(q, 0.0), 1.0);
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

LatencySplit
collectLatencies(const ServeStats &s)
{
    LatencySplit l;
    l.total.reserve(s.requests.size());
    l.queue.reserve(s.requests.size());
    l.exec.reserve(s.requests.size());
    for (const RequestRecord &r : s.requests) {
        l.total.push_back(r.totalUs());
        l.queue.push_back(r.queueUs);
        l.exec.push_back(r.execUs);
    }
    // Sort once here; every percentile below indexes the sorted data.
    std::sort(l.total.begin(), l.total.end());
    std::sort(l.queue.begin(), l.queue.end());
    std::sort(l.exec.begin(), l.exec.end());
    return l;
}

}  // namespace

double
percentile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    return percentileSorted(values, q);
}

void
printServeReport(const ServeStats &s, std::ostream &os)
{
    auto ms = [](double us) { return us * 1e-3; };

    os << "serving report: " << s.completed << " completed / "
       << s.offered << " offered in " << std::fixed
       << std::setprecision(2) << s.durationUs * 1e-6 << " s  ("
       << std::setprecision(1) << s.throughputRps() << " req/s)\n";
    os << "  admission: " << s.admitted << " admitted, " << s.rejected
       << " rejected\n";
    os << "  engine cache: " << s.cacheMisses << " engines built in "
       << std::setprecision(1) << ms(s.engineBuildUs) << " ms, "
       << s.cacheHits << " hits / " << s.cacheMisses
       << " misses (hit rate " << std::setprecision(1)
       << 100.0 * s.cacheHitRate() << "%)\n";

    os << "  memory: " << s.tensorAllocs << " tensor allocs ("
       << s.tensorAllocBytes / 1024 << " KiB) over the session, "
       << std::setprecision(2) << s.allocsPerRequest()
       << " allocs/request; " << s.arenaBlocks
       << " pooled arena blocks (" << s.arenaBlockBytes / 1024
       << " KiB)\n";

    if (s.quant.quantized)
        os << "  quant: mode " << s.quantMode << ", "
           << s.quant.int8Gemms << " int8 GEMMs and " << s.quant.qdqOps
           << " Q/DQ ops across engines, weights "
           << s.quant.packedWeightBytes / 1024 << " KiB int8 vs "
           << s.quant.floatWeightBytes / 1024 << " KiB f32 ("
           << std::setprecision(2) << s.quant.weightCompression()
           << "x smaller)\n";

    if (s.perf.enabled) {
        if (s.perf.measured)
            os << "  hw counters: IPC " << std::setprecision(2)
               << s.perf.total.ipc() << ", LLC MPKI "
               << s.perf.total.missesPerKiloInstr() << ", "
               << std::setprecision(0) << s.cyclesPerRequest() * 1e-6
               << " Mcycles/request over " << s.perf.total.scopes
               << " kernel scopes\n";
        else
            os << "  hw counters: unavailable (" << s.perf.status
               << "), " << s.perf.total.scopes
               << " kernel scopes clocked\n";
    }

    int64_t timeout_closed = 0;
    for (const BatchRecord &b : s.batches)
        timeout_closed += b.closedByTimeout;
    os << "  batches: " << s.batches.size() << " dispatched, mean size "
       << std::setprecision(2) << s.meanBatchSize() << ", "
       << timeout_closed << " closed by deadline\n";
    if (!s.batchSizeHist.empty()) {
        int64_t most = 0;
        for (const auto &[size, count] : s.batchSizeHist)
            most = std::max(most, count);
        os << "    size histogram:\n";
        for (const auto &[size, count] : s.batchSizeHist) {
            int bar = most > 0 ? static_cast<int>(
                                     32.0 * static_cast<double>(count) /
                                     static_cast<double>(most))
                               : 0;
            os << "      " << std::setw(3) << size << ": " << std::setw(6)
               << count << " |" << std::string(static_cast<size_t>(bar), '#')
               << "\n";
        }
    }

    if (!s.depthSamples.empty()) {
        // Queue depth over time, folded into up to 12 buckets.
        size_t max_depth = 0;
        double sum_depth = 0;
        for (const QueueDepthSample &d : s.depthSamples) {
            max_depth = std::max(max_depth, d.depth);
            sum_depth += static_cast<double>(d.depth);
        }
        os << "  queue depth: mean " << std::setprecision(1)
           << sum_depth / static_cast<double>(s.depthSamples.size())
           << ", max " << max_depth << " ("
           << s.depthSamples.size() << " samples";
        if (s.samplerCadenceUs > 0)
            os << ", sampler cadence "
               << static_cast<double>(s.samplerCadenceUs) * 1e-3
               << " ms";
        os << ")\n";
        const size_t buckets =
            std::min<size_t>(12, s.depthSamples.size());
        double span = s.depthSamples.back().tUs;
        if (buckets > 1 && span > 0 && max_depth > 0) {
            std::vector<double> sum(buckets, 0);
            std::vector<int64_t> cnt(buckets, 0);
            for (const QueueDepthSample &d : s.depthSamples) {
                size_t b = std::min(
                    buckets - 1,
                    static_cast<size_t>(static_cast<double>(buckets) *
                                        d.tUs / span));
                sum[b] += static_cast<double>(d.depth);
                ++cnt[b];
            }
            os << "    over time:\n";
            for (size_t b = 0; b < buckets; ++b) {
                double avg = cnt[b] > 0
                                 ? sum[b] / static_cast<double>(cnt[b])
                                 : 0;
                int bar = static_cast<int>(
                    32.0 * avg / static_cast<double>(max_depth));
                os << "      t=" << std::setw(5) << std::setprecision(2)
                   << (span * static_cast<double>(b) /
                       static_cast<double>(buckets)) *
                          1e-6
                   << "s  " << std::setw(6) << std::setprecision(1) << avg
                   << " |"
                   << std::string(static_cast<size_t>(bar), '#') << "\n";
            }
        }
    }

    LatencySplit l = collectLatencies(s);
    os << "  latency (ms):        p50      p95      p99      max\n";
    auto row = [&](const char *label, const std::vector<double> &v) {
        double mx = v.empty() ? 0 : v.back();
        os << "    " << std::left << std::setw(9) << label << std::right
           << std::setw(9) << std::setprecision(2)
           << ms(percentileSorted(v, 0.50))
           << std::setw(9) << ms(percentileSorted(v, 0.95))
           << std::setw(9) << ms(percentileSorted(v, 0.99))
           << std::setw(9) << ms(mx) << "\n";
    };
    row("total", l.total);
    row("queue", l.queue);
    row("execute", l.exec);

    if (!s.completedByModel.empty()) {
        os << "  per tenant:";
        for (const auto &[model, count] : s.completedByModel)
            os << "  " << model << "=" << count;
        os << "\n";
    }
}

void
writeServeJson(const ServeStats &s, std::ostream &os)
{
    LatencySplit l = collectLatencies(s);
    auto pct = [&](const std::vector<double> &v) {
        return std::string("{\"p50\": ") +
               std::to_string(percentileSorted(v, 0.50)) + ", \"p95\": " +
               std::to_string(percentileSorted(v, 0.95)) + ", \"p99\": " +
               std::to_string(percentileSorted(v, 0.99)) + "}";
    };

    os << "{\n";
    os << "  \"duration_us\": " << s.durationUs << ",\n";
    os << "  \"offered\": " << s.offered << ",\n";
    os << "  \"admitted\": " << s.admitted << ",\n";
    os << "  \"rejected\": " << s.rejected << ",\n";
    os << "  \"completed\": " << s.completed << ",\n";
    os << "  \"throughput_rps\": " << s.throughputRps() << ",\n";
    os << "  \"cache\": {\"hits\": " << s.cacheHits << ", \"misses\": "
       << s.cacheMisses << ", \"hit_rate\": " << s.cacheHitRate()
       << ", \"build_us\": " << s.engineBuildUs << "},\n";
    os << "  \"memory\": {\"tensor_allocs\": " << s.tensorAllocs
       << ", \"tensor_alloc_bytes\": " << s.tensorAllocBytes
       << ", \"allocs_per_request\": " << s.allocsPerRequest()
       << ", \"arena_blocks\": " << s.arenaBlocks
       << ", \"arena_block_bytes\": " << s.arenaBlockBytes << "},\n";
    os << "  \"quant\": {\"mode\": " << obs::jsonQuote(s.quantMode)
       << ", \"quantized\": " << (s.quant.quantized ? "true" : "false")
       << ", \"int8_gemms\": " << s.quant.int8Gemms
       << ", \"qdq_ops\": " << s.quant.qdqOps
       << ", \"packed_weight_bytes\": " << s.quant.packedWeightBytes
       << ", \"float_weight_bytes\": " << s.quant.floatWeightBytes
       << ", \"weight_compression\": " << s.quant.weightCompression()
       << "},\n";
    if (s.perf.enabled) {
        const obs::PerfCounterStats &pf = s.perf;
        os << "  \"perf\": {\"measured\": "
           << (pf.measured ? "true" : "false") << ", \"hw_counters\": "
           << pf.hwCounters << ", \"status\": "
           << obs::jsonQuote(pf.status)
           << ", \"cycles\": " << pf.total.cycles
           << ", \"instructions\": " << pf.total.instructions
           << ", \"llc_misses\": " << pf.total.cacheMisses
           << ", \"branch_misses\": " << pf.total.branchMisses
           << ", \"kernel_scopes\": " << pf.total.scopes
           << ", \"ipc\": " << pf.total.ipc()
           << ", \"llc_mpki\": " << pf.total.missesPerKiloInstr()
           << ", \"cycles_per_request\": " << s.cyclesPerRequest()
           << "},\n";
    }
    os << "  \"batches\": " << s.batches.size() << ",\n";
    os << "  \"mean_batch_size\": " << s.meanBatchSize() << ",\n";
    os << "  \"batch_size_hist\": {";
    bool first = true;
    for (const auto &[size, count] : s.batchSizeHist) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << size << "\": " << count;
    }
    os << "},\n";
    os << "  \"latency_us\": {\"total\": " << pct(l.total)
       << ", \"queue\": " << pct(l.queue) << ", \"execute\": "
       << pct(l.exec) << "},\n";

    // The metrics registry's log-bucketed estimates next to the exact
    // sorted-vector percentiles above: the mid-run-readable numbers a
    // scraper saw, reported with the post-run truth so the bounded
    // bucket error is visible in one document. Only meaningful when
    // metrics recorded this session.
    if (obs::metricsEnabled()) {
        auto &reg = obs::MetricsRegistry::instance();
        auto hist = [&](const char *name) {
            obs::Histogram::Snapshot h =
                reg.histogram(name).snapshot();
            obs::JsonDict d;
            d.add("count", h.count);
            d.add("p50", h.percentile(0.50));
            d.add("p95", h.percentile(0.95));
            d.add("p99", h.percentile(0.99));
            return d.str();
        };
        os << "  \"latency_us_hist\": {\"total\": "
           << hist("serve.latency_us") << ", \"queue\": "
           << hist("serve.queue_us") << ", \"execute\": "
           << hist("serve.exec_us") << "},\n";
    }

    os << "  \"sampler_cadence_us\": " << s.samplerCadenceUs << ",\n";
    os << "  \"depth_samples\": [";
    first = true;
    for (const QueueDepthSample &d : s.depthSamples) {
        os << (first ? "" : ", ") << "{\"t_us\": "
           << obs::jsonNumber(d.tUs) << ", \"depth\": " << d.depth
           << "}";
        first = false;
    }
    os << "],\n";

    os << "  \"completed_by_model\": {";
    first = true;
    for (const auto &[model, count] : s.completedByModel) {
        if (!first)
            os << ", ";
        first = false;
        os << obs::jsonQuote(model) << ": " << count;
    }
    os << "},\n";
    os << "  \"requests\": [\n";
    for (size_t i = 0; i < s.requests.size(); ++i) {
        const RequestRecord &r = s.requests[i];
        os << "    {\"id\": " << r.id << ", \"model\": "
           << obs::jsonQuote(r.model) << ", \"seed\": " << r.seed
           << ", \"queue_us\": " << r.queueUs << ", \"exec_us\": "
           << r.execUs << ", \"batch\": " << r.batchSize << "}"
           << (i + 1 < s.requests.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

}  // namespace ngb
