#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>

#include "harness.h"

using namespace ngb;
using namespace ngb::perfbench;

namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)  // unsorted on purpose
        v.push_back(i);
    return v;
}

}  // namespace

TEST(PerfbenchPercentile, NearestRank)
{
    EXPECT_EQ(percentile(oneTo(100), 50), 50);
    EXPECT_EQ(percentile(oneTo(100), 90), 90);
    EXPECT_EQ(percentile(oneTo(100), 100), 100);
    EXPECT_EQ(percentile(oneTo(1), 99), 1);
    EXPECT_EQ(percentile({}, 50), 0);
    EXPECT_EQ(median(oneTo(9)), 5);
}

TEST(PerfbenchPercentile, TenSamplesBeyondRule)
{
    EXPECT_TRUE(percentileSupported(100, 90));   // 10 beyond
    EXPECT_FALSE(percentileSupported(99, 90));   // 9 beyond
    EXPECT_TRUE(percentileSupported(1000, 99));
    EXPECT_FALSE(percentileSupported(999, 99));
    EXPECT_FALSE(percentileSupported(0, 50));
    EXPECT_EQ(highestSupportedPercentile(1000), 99);
    EXPECT_EQ(highestSupportedPercentile(100), 90);
    EXPECT_EQ(highestSupportedPercentile(20), 50);
    EXPECT_EQ(highestSupportedPercentile(10), 0);
}

TEST(PerfbenchPercentile, WindowsHoldWholePassesAndEnoughSamples)
{
    // 40-request passes: three per window (120 >= 100 samples).
    EXPECT_EQ(windowOfPass(0, 10, 40), 0u);
    EXPECT_EQ(windowOfPass(2, 10, 40), 0u);
    EXPECT_EQ(windowOfPass(3, 10, 40), 1u);
    EXPECT_EQ(windowOfPass(8, 10, 40), 2u);
    EXPECT_EQ(windowOfPass(9, 10, 40), 2u);  // remainder joins window 2
    // One request per pass (open loop): windows of 100 requests.
    EXPECT_EQ(windowOfPass(99, 1000, 1), 0u);
    EXPECT_EQ(windowOfPass(100, 1000, 1), 1u);
    EXPECT_EQ(windowOfPass(999, 1050, 1), 9u);
    EXPECT_EQ(windowOfPass(1049, 1050, 1), 9u);
    // Too few samples for a full window: everything in one.
    EXPECT_EQ(windowOfPass(1, 2, 40), 0u);
}

TEST(PerfbenchPlan, SameSeedSameSequence)
{
    std::vector<serve::MixEntry> counts = {{"a", 3}, {"b", 5}, {"c", 2}};
    std::vector<PlannedRequest> p1 = seededPass(counts, 7, 2);
    std::vector<PlannedRequest> p2 = seededPass(counts, 7, 2);
    ASSERT_EQ(p1.size(), 10u);
    ASSERT_EQ(p2.size(), 10u);
    for (size_t i = 0; i < p1.size(); ++i) {
        EXPECT_EQ(p1[i].model, p2[i].model);
        EXPECT_EQ(p1[i].seed, p2[i].seed);
    }
    std::map<std::string, int> n;
    for (const PlannedRequest &r : p1)
        ++n[r.model];
    EXPECT_EQ(n["a"], 3);
    EXPECT_EQ(n["b"], 5);
    EXPECT_EQ(n["c"], 2);

    std::vector<PlannedRequest> other = seededPass(counts, 8, 2);
    bool differs = false;
    for (size_t i = 0; i < p1.size(); ++i)
        differs = differs || p1[i].model != other[i].model ||
                  p1[i].seed != other[i].seed;
    EXPECT_TRUE(differs);
}

TEST(PerfbenchPlan, OpenLoopTraceIsDeterministicWithExactCounts)
{
    std::vector<serve::MixEntry> mix = {{"a", 1}, {"b", 3}};
    auto t1 = openLoopTrace(mix, 200, 2.0, 5, 4);
    auto t2 = openLoopTrace(mix, 200, 2.0, 5, 4);
    ASSERT_EQ(t1.size(), 400u);
    ASSERT_EQ(t2.size(), 400u);
    std::set<uint64_t> seeds;
    std::map<std::string, int> n;
    for (size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].atUs, t2[i].atUs);
        EXPECT_EQ(t1[i].model, t2[i].model);
        EXPECT_EQ(t1[i].seed, t2[i].seed);
        if (i > 0)
            EXPECT_GE(t1[i].atUs, t1[i - 1].atUs);
        seeds.insert(t1[i].seed);
        ++n[t1[i].model];
    }
    EXPECT_LT(t1.back().atUs, 2.0e6);
    EXPECT_EQ(seeds.size(), 4u);
    EXPECT_EQ(n["a"], 100);
    EXPECT_EQ(n["b"], 300);

    auto other = openLoopTrace(mix, 200, 2.0, 6, 4);
    EXPECT_NE(other[0].atUs, t1[0].atUs);
}

TEST(PerfbenchOpenLoop, LatencyStampedFromDueTimeWhenGeneratorIsLate)
{
    // Requests due every millisecond; the first issue() stalls 30 ms,
    // standing in for a generator blocked on a full queue. The server
    // answers instantly, so a push-stamped latency would read ~0.
    std::vector<double> dueUs = {0, 1000, 2000, 3000};
    std::vector<double> latencyMs(dueUs.size());
    Clock::time_point t0 = Clock::now();
    std::vector<double> lagMs = replayOnSchedule(
        dueUs, t0, [&](size_t i, Clock::time_point due) {
            if (i == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(30));
            latencyMs[i] = msBetween(due, Clock::now());
        });
    ASSERT_EQ(lagMs.size(), dueUs.size());
    EXPECT_GE(latencyMs[0], 30.0);
    for (size_t i = 1; i < dueUs.size(); ++i) {
        EXPECT_GE(lagMs[i], 30.0 - dueUs[i] / 1000.0 - 0.5) << i;
        EXPECT_GE(latencyMs[i], lagMs[i]) << i;
    }
}

TEST(PerfbenchOracle, SameBitsSeesOneBit)
{
    Tensor a = Tensor::randn(Shape({2, 3}), 1, 1.0f);
    Tensor b = a.clone();
    EXPECT_TRUE(sameBits({a}, {b}));
    b.flatSet(4, std::nextafter(b.flatAt(4), 10.0f));
    EXPECT_FALSE(sameBits({a}, {b}));
    EXPECT_FALSE(sameBits({a}, {a, a}));
    EXPECT_FALSE(sameBits({a}, {a.reshape(Shape({3, 2}))}));
    // A strided view takes the element-wise path.
    Tensor t = a.transpose(0, 1);
    EXPECT_TRUE(sameBits({t}, {t.contiguous()}));
    EXPECT_FALSE(sameBits({t}, {b.transpose(0, 1).contiguous()}));
}

TEST(PerfbenchEnvironment, ScrubRemovesEveryNgbVariable)
{
    setenv("NGB_PERFBENCH_PROBE", "1", 1);
    setenv("NGBX_KEEP", "1", 1);
    std::vector<std::string> removed = scrubNgbEnvironment();
    EXPECT_NE(std::find(removed.begin(), removed.end(),
                        "NGB_PERFBENCH_PROBE"),
              removed.end());
    EXPECT_EQ(std::getenv("NGB_PERFBENCH_PROBE"), nullptr);
    EXPECT_NE(std::getenv("NGBX_KEEP"), nullptr);
    unsetenv("NGBX_KEEP");
    EXPECT_TRUE(scrubNgbEnvironment().empty());
}
