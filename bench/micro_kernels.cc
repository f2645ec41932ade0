/**
 * @file
 * Per-operator microbenchmark of the real host kernels — the
 * wall-clock ground truth behind the backend API: for every hot
 * operator it times the reference kernel against the simd backend's
 * kernel at the portable level (--isa scalar) and, when a vector level
 * is active, at that level too, on a representative shape, and reports
 * ns/op plus the speedups, so the GEMM/non-GEMM trajectory of the
 * paper can be tracked as kernels improve across PRs.
 *
 *   bench_micro_kernels                  # full table
 *   bench_micro_kernels --smoke          # tiny shapes, few reps (CI)
 *   bench_micro_kernels --json           # also write BENCH_kernels.json
 *   bench_micro_kernels --json FILE      # ... to a chosen path
 *   bench_micro_kernels --isa LEVEL      # force the SIMD dispatch level
 *   bench_micro_kernels --check          # exit 1 unless the GEMM rows
 *                                        # hit the acceptance bars
 *                                        # (forces representative shapes)
 *   bench_micro_kernels --expect-warm    # exit 1 if any tile tuning ran
 *                                        # (the $NGB_TUNE_CACHE file was
 *                                        # expected to satisfy every key)
 *   bench_micro_kernels --threads N      # also time the GEMM rows with
 *                                        # an N-worker ParallelRegion
 *                                        # (par_ns / par_x columns), so
 *                                        # per-kernel scaling regressions
 *                                        # are visible per ISA leg
 *
 * Timing method: repetitions are BATCHED between clock reads — the rep
 * count doubles until one batch is long enough to dwarf the clock-read
 * cost, so sub-microsecond kernels are not inflated by a Clock::now()
 * per call — and a measured empty-loop baseline (the cost of the
 * harness loop itself around an empty std::function) is subtracted.
 *
 * The JSON is machine-readable ({op, shape, backends.{name}.ns_per_op,
 * speedup, speedup_simd} plus the active isa and the tuning-cache
 * stats) so future PRs can diff per-op speedups mechanically.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "ops/kernels.h"
#include "ops/simd_backend.h"
#include "platform/cpu_features.h"
#include "platform/tuning_cache.h"
#include "quant/quant_kernels.h"
#include "quant/weight_pack.h"
#include "runtime/intraop.h"
#include "runtime/thread_pool.h"

using namespace ngb;
namespace kn = kernels;
namespace kq = kernels::qnt;
namespace sd = kernels::sd;
namespace pf = platform;

namespace {

using Clock = std::chrono::steady_clock;

struct BenchResult {
    std::string op;
    std::string shape;
    double refNs = 0;
    double portNs = 0;  ///< simd kernel at the portable level
    double simdNs = 0;  ///< at the active vector level; 0 = not timed
    double parNs = 0;   ///< 0 = op not timed under a ParallelRegion

    /** reference vs portable — the ref->fast bar. */
    double speedup() const { return portNs > 0 ? refNs / portNs : 0; }

    /** portable vs vector level — the bar vector levels are held to. */
    double simdSpeedup() const
    {
        return simdNs > 0 ? portNs / simdNs : 0;
    }

    /** Sharded vs serial of the same kernel at the active level —
     *  intra-op scaling. */
    double parSpeedup() const
    {
        double base = simdNs > 0 ? simdNs : portNs;
        return parNs > 0 ? base / parNs : 0;
    }
};

/** One timed batch: @p batch calls of @p fn between two clock reads. */
double
runBatchMs(const std::function<void()> &fn, int64_t batch)
{
    auto t0 = Clock::now();
    for (int64_t i = 0; i < batch; ++i)
        fn();
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * What the timing loop itself costs per iteration (loop bookkeeping +
 * one empty std::function dispatch), measured once. Subtracted from
 * every per-call figure so a 50 ns kernel is reported as ~50 ns, not
 * 50 ns plus harness overhead.
 */
double
emptyLoopNsPerCall()
{
    static const double ns = [] {
        std::function<void()> nop = [] {};
        const int64_t iters = 1 << 20;
        runBatchMs(nop, iters);  // warm-up (page in, branch-train)
        double best = runBatchMs(nop, iters);
        best = std::min(best, runBatchMs(nop, iters));
        return best * 1e6 / iters;
    }();
    return ns;
}

/**
 * Time @p fn: one warm-up call, then batched repetitions. The batch
 * size doubles until a single batch covers a measurable slice of the
 * budget (so the two Clock::now() reads bracketing it are noise), then
 * whole batches accumulate until @p minMs of wall time and @p minReps
 * calls are covered. Returns baseline-corrected ns per call.
 */
double
timeNs(const std::function<void()> &fn, double minMs, int minReps)
{
    fn();  // warm-up (first-touch, caches)
    double floorMs = std::max(minMs / 20.0, 0.05);
    int64_t batch = 1;
    double batchMs = runBatchMs(fn, batch);
    while (batchMs < floorMs && batch < (int64_t(1) << 24)) {
        batch *= 2;
        batchMs = runBatchMs(fn, batch);
    }
    double totalMs = batchMs;
    int64_t calls = batch;
    while (calls < minReps || totalMs < minMs) {
        totalMs += runBatchMs(fn, batch);
        calls += batch;
    }
    double ns = totalMs * 1e6 / calls - emptyLoopNsPerCall();
    return ns > 0 ? ns : 0;
}

class Harness
{
  public:
    Harness(bool smoke, int threads)
        : smoke_(smoke), threads_(threads)
    {
    }

    int threads() const { return threads_; }

    /**
     * Time one row: @p ref, then @p fast at the portable level and —
     * when @p perLevel and a vector level is active — at that level,
     * then @p par (the sharded @p fast) at the active level.
     */
    void add(const std::string &op, const std::string &shape,
             std::function<void()> ref, std::function<void()> fast,
             std::function<void()> par = nullptr, bool perLevel = true)
    {
        double minMs = smoke_ ? 5 : 100;
        int minReps = smoke_ ? 2 : 5;
        BenchResult r;
        r.op = op;
        r.shape = shape;
        r.refNs = timeNs(ref, minMs, minReps);
        const pf::IsaLevel active = pf::activeIsa();
        pf::setActiveIsa(pf::IsaLevel::Scalar);
        r.portNs = timeNs(fast, minMs, minReps);
        pf::setActiveIsa(active);
        const bool vector = perLevel && active != pf::IsaLevel::Scalar;
        if (vector)
            r.simdNs = timeNs(fast, minMs, minReps);
        if (par && threads_ > 1)
            r.parNs = timeNs(par, minMs, minReps);
        results_.push_back(r);
        char simdNs[32], simdX[16], parNs[32], parX[16];
        if (vector) {
            std::snprintf(simdNs, sizeof simdNs, "%14.0f", r.simdNs);
            std::snprintf(simdX, sizeof simdX, "%8.2fx",
                          r.simdSpeedup());
        } else {
            std::snprintf(simdNs, sizeof simdNs, "%14s", "-");
            std::snprintf(simdX, sizeof simdX, "%9s", "-");
        }
        if (r.parNs > 0) {
            std::snprintf(parNs, sizeof parNs, "%12.0f", r.parNs);
            std::snprintf(parX, sizeof parX, "%7.2fx", r.parSpeedup());
        } else {
            std::snprintf(parNs, sizeof parNs, "%12s", "-");
            std::snprintf(parX, sizeof parX, "%8s", "-");
        }
        std::printf("%-14s %-18s %14.0f %14.0f %8.2fx %s %s %s %s\n",
                    op.c_str(), shape.c_str(), r.refNs, r.portNs,
                    r.speedup(), simdNs, simdX, parNs, parX);
        std::fflush(stdout);
    }

    const std::vector<BenchResult> &results() const { return results_; }

    void writeJson(const std::string &path) const
    {
        const simd::TuneStats ts = simd::TuningCache::process().stats();
        std::ofstream f(path);
        f << "{\n  \"bench\": \"micro_kernels\",\n  \"smoke\": "
          << (smoke_ ? "true" : "false") << ",\n  \"isa\": \""
          << platform::isaName(platform::activeIsa())
          << "\",\n  \"tuning\": {\"tune_runs\": " << ts.tuneRuns
          << ", \"tuned_keys\": " << ts.tunedKeys
          << ", \"replays\": " << ts.replays << ", \"entries\": "
          << simd::TuningCache::process().entries()
          << "},\n  \"threads\": " << threads_ << ",\n  \"ops\": [\n";
        for (size_t i = 0; i < results_.size(); ++i) {
            const BenchResult &r = results_[i];
            f << "    {\"op\": \"" << r.op << "\", \"shape\": \""
              << r.shape << "\", \"backends\": {\"reference\": "
              << "{\"ns_per_op\": " << r.refNs
              << "}, \"portable\": {\"ns_per_op\": " << r.portNs << "}";
            if (r.simdNs > 0)
                f << ", \"simd\": {\"ns_per_op\": " << r.simdNs << "}";
            f << "}, \"speedup\": " << r.speedup();
            if (r.simdNs > 0)
                f << ", \"speedup_simd\": " << r.simdSpeedup();
            if (r.parNs > 0)
                f << ", \"par_ns_per_op\": " << r.parNs
                  << ", \"speedup_par\": " << r.parSpeedup();
            f << "}" << (i + 1 < results_.size() ? "," : "") << "\n";
        }
        f << "  ]\n}\n";
        std::printf("wrote %s\n", path.c_str());
    }

  private:
    bool smoke_;
    int threads_;
    std::vector<BenchResult> results_;
};

std::string
dims(std::initializer_list<int64_t> ds)
{
    std::string s;
    for (int64_t d : ds)
        s += (s.empty() ? "" : "x") + std::to_string(d);
    return s;
}

bool
knownFlag(const std::string &a)
{
    return a == "--smoke" || a == "--check" || a == "--json" ||
           a == "--isa" || a == "--expect-warm" || a == "--threads";
}

}  // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool json = false;
    bool check = false;
    bool expectWarm = false;
    int threads = 1;
    std::string jsonPath = "BENCH_kernels.json";
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--smoke") {
            smoke = true;
        } else if (a == "--check") {
            check = true;
        } else if (a == "--expect-warm") {
            expectWarm = true;
        } else if (a == "--isa") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for --isa\n");
                return 2;
            }
            try {
                platform::setActiveIsaName(argv[++i]);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s\n", e.what());
                return 2;
            }
        } else if (a == "--threads") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for --threads\n");
                return 2;
            }
            threads = std::atoi(argv[++i]);
            if (threads < 1) {
                std::fprintf(stderr, "--threads wants a count >= 1\n");
                return 2;
            }
        } else if (a == "--json") {
            json = true;
            // The next token is a path unless it is one of our flags —
            // paths beginning with '-' (or named like anything else)
            // are legitimate.
            if (i + 1 < argc && !knownFlag(argv[i + 1]))
                jsonPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_micro_kernels [--smoke] "
                         "[--check] [--json [FILE]] [--isa LEVEL] "
                         "[--expect-warm] [--threads N]\n");
            return 2;
        }
    }
    if (check && smoke) {
        // The acceptance bars are calibrated on the representative
        // shapes; checking smoke shapes would pass/fail on noise.
        std::printf("note: --check forces representative shapes "
                    "(--smoke ignored)\n");
        smoke = false;
    }

    const char *isa = platform::isaName(platform::activeIsa());
    std::printf("micro_kernels: reference vs simd[portable] vs simd[%s] "
                "(%s shapes, %d intra-op thread%s)\n",
                isa, smoke ? "smoke" : "representative", threads,
                threads == 1 ? "" : "s");
    std::printf("%-14s %-18s %14s %14s %9s %14s %9s %12s %8s\n", "op",
                "shape", "ref_ns", "port_ns", "port_x", "simd_ns",
                "simd_x", "par_ns", "par_x");

    Harness h(smoke, threads);

    // The GEMM rows also time the active level's kernel under an
    // N-worker region when --threads asks for it; par lambdas are
    // skipped at --threads 1.
    ThreadPool parPool(threads);
    ParallelRegion region(&parPool);
    const ParallelRegion *par = &region;

    // ---- GEMM family ----------------------------------------------------
    {
        int64_t n = smoke ? 64 : 256;
        Tensor a = Tensor::randn(Shape{n, n}, 1);
        Tensor b = Tensor::randn(Shape{n, n}, 2);
        h.add("matmul", dims({n, n, n}),
              [=] { kn::matmul(a, b); }, [=] { sd::matmul(a, b); },
              [=] { sd::matmul(a, b, {}, par); });
    }
    {
        int64_t m = smoke ? 32 : 128;
        int64_t k = smoke ? 64 : 512;
        Tensor x = Tensor::randn(Shape{m, k}, 3);
        Tensor w = Tensor::randn(Shape{k, k}, 4);
        Tensor b = Tensor::randn(Shape{k}, 5);
        h.add("linear", dims({m, k, k}),
              [=] { kn::linear(x, w, b); },
              [=] { sd::linearPacked(x, sd::packWeightTranspose(w), b); });
        // The engine hot path: the backend memoizes the weight pack
        // per node (ParamStore::derived), so per-request cost is
        // linearPacked alone. Pack outside the timed lambda.
        Tensor wt = sd::packWeightTranspose(w);
        h.add("linear_packed", dims({m, k, k}),
              [=] { kn::linear(x, w, b); },
              [=] { sd::linearPacked(x, wt, b); },
              [=] { sd::linearPacked(x, wt, b, {}, par); });
    }
    {
        int64_t t = smoke ? 49 : 197;
        Tensor a = Tensor::randn(Shape{12, t, 64}, 6);
        Tensor b = Tensor::randn(Shape{12, 64, t}, 7);
        h.add("bmm", dims({12, t, 64, t}),
              [=] { kn::bmm(a, b); }, [=] { sd::bmm(a, b); },
              [=] { sd::bmm(a, b, {}, par); });
    }
    {
        // The executable-quantization hot path: reference = the naive
        // row-layout int8 GEMM, portable = the 4x16 i32 tile core over
        // the [K,N] pack, vector levels = the VNNI/sdot (or widening)
        // kernel over their own layout. All requantize identically;
        // packing happens outside the timed lambdas like
        // linear_packed above.
        int64_t m = smoke ? 32 : 128;
        int64_t k = smoke ? 64 : 512;
        Tensor x = Tensor::randn(Shape{m, k}, 14);
        Tensor w = Tensor::randn(Shape{k, k}, 15);
        Tensor bias = Tensor::randn(Shape{k}, 16);
        auto [xq, xs] = kq::quantizeActivation(x);
        float xScale = kq::scaleValue(xs);
        Tensor scales = quant::perChannelScales(w);
        Tensor wq = quant::quantizeWeightRows(w, scales);
        Tensor wtq = quant::packWeightInt8(w, scales);
        // The portable level streams the [K,N] pack itself.
        Tensor wsd = sd::packInt8Weight(wtq);
        auto packed = [=] {
            return pf::activeIsa() == pf::IsaLevel::Scalar ? wtq : wsd;
        };
        h.add("int8_linear", dims({m, k, k}),
              [=, xq = xq] {
                  kq::int8LinearRequant(xq, xScale, wq, scales, bias,
                                        nullptr, 0);
              },
              [=, xq = xq] {
                  sd::int8LinearRequant(xq, xScale, packed(), scales,
                                        bias);
              },
              [=, xq = xq] {
                  sd::int8LinearRequant(xq, xScale, packed(), scales,
                                        bias, {}, par);
              });
    }

    // ---- Normalization --------------------------------------------------
    {
        int64_t d = smoke ? 256 : 1600;
        Tensor x = Tensor::randn(Shape{197, d}, 8);
        Tensor g = Tensor::full(Shape{d}, 1.0f);
        Tensor b = Tensor::zeros(Shape{d});
        h.add("layer_norm", dims({197, d}),
              [=] { kn::layerNorm(x, g, b, 1e-5f); },
              [=] { sd::layerNorm(x, g, b, 1e-5f); });
    }
    {
        int64_t c = smoke ? 8 : 64;
        int64_t hw = smoke ? 14 : 56;
        Tensor x = Tensor::randn(Shape{1, c, hw, hw}, 9);
        Tensor g = Tensor::full(Shape{c}, 1.0f);
        Tensor b = Tensor::zeros(Shape{c});
        Tensor m = Tensor::zeros(Shape{c});
        Tensor v = Tensor::full(Shape{c}, 1.0f);
        h.add("batch_norm2d", dims({1, c, hw, hw}),
              [=] { kn::batchNorm2d(x, g, b, m, v, 1e-5f); },
              [=] { sd::batchNorm2d(x, g, b, m, v, 1e-5f); }, nullptr,
              false);
    }

    // ---- Logit computation ----------------------------------------------
    {
        int64_t t = smoke ? 16 : 64;
        Tensor x = Tensor::randn(Shape{25, t, t}, 10);
        h.add("softmax", dims({25, t, t}),
              [=] { kn::softmax(x, -1); }, [=] { sd::softmax(x, -1); },
              nullptr, false);
    }

    // ---- Elementwise ----------------------------------------------------
    int64_t n = smoke ? (1 << 12) : (1 << 16);
    {
        Tensor x = Tensor::randn(Shape{n}, 11);
        const kn::scalar::UnaryStage gelu{kn::scalar::UnaryKind::Gelu};
        const kn::scalar::UnaryStage silu{kn::scalar::UnaryKind::Silu};
        h.add("gelu", dims({n}), [=] { kn::gelu(x); },
              [=] { sd::unary(gelu, x); }, nullptr, false);
        h.add("relu", dims({n}), [=] { kn::relu(x); },
              [=] { sd::relu(x); });
        h.add("silu", dims({n}), [=] { kn::silu(x); },
              [=] { sd::unary(silu, x); }, nullptr, false);
    }
    {
        Tensor a = Tensor::randn(Shape{n}, 12);
        Tensor b = Tensor::randn(Shape{n}, 13);
        h.add("add", dims({n}), [=] { kn::add(a, b); },
              [=] { sd::add(a, b); });
        h.add("mul", dims({n}), [=] { kn::mul(a, b); },
              [=] { sd::mul(a, b); });
    }

    if (json)
        h.writeJson(jsonPath);

    // Acceptance bars, informational by default (bench hosts are
    // noisy); --check turns a miss into a nonzero exit so CI can
    // enforce them mechanically:
    //  - portable level: matmul and linear at least 2x over reference
    //    on the representative shapes — the floor every host gets.
    //  - vector level: no slower than portable (>= 1.0x) on the GEMM
    //    rows, whenever one is actually active.
    bool ok = true;
    for (const BenchResult &r : h.results())
        if ((r.op == "matmul" || r.op == "linear") && r.speedup() < 2.0) {
            ok = false;
            std::printf("%s: %s ref->portable %.2fx below the 2x bar\n",
                        check ? "FAIL" : "note", r.op.c_str(),
                        r.speedup());
        }
    for (const BenchResult &r : h.results())
        if ((r.op == "matmul" || r.op == "linear_packed" ||
             r.op == "bmm" || r.op == "int8_linear") &&
            r.simdNs > 0 && r.simdSpeedup() < 1.0) {
            ok = false;
            std::printf("%s: %s simd[%s] %.2fx slower than portable\n",
                        check ? "FAIL" : "note", r.op.c_str(), isa,
                        1.0 / r.simdSpeedup());
        }
    if (expectWarm) {
        const simd::TuneStats ts = simd::TuningCache::process().stats();
        if (ts.tuneRuns > 0) {
            ok = false;
            std::printf("FAIL: --expect-warm but %llu tuning runs "
                        "happened (%llu keys missed the cache)\n",
                        static_cast<unsigned long long>(ts.tuneRuns),
                        static_cast<unsigned long long>(ts.tunedKeys));
        } else {
            std::printf("tuning cache warm: %llu replays, 0 tune runs\n",
                        static_cast<unsigned long long>(ts.replays));
        }
    }
    return (check || expectWarm) && !ok ? 1 : 0;
}
