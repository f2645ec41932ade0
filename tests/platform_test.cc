#include <gtest/gtest.h>

#include <cmath>

#include "platform/cost_model.h"
#include "platform/env.h"

namespace ngb {
namespace {

TEST(EnvFlagTest, UnsetEmptyZeroAndOffAreOff)
{
    EXPECT_FALSE(platform::parseEnvFlag(nullptr));
    EXPECT_FALSE(platform::parseEnvFlag(""));
    EXPECT_FALSE(platform::parseEnvFlag("0"));
    EXPECT_FALSE(platform::parseEnvFlag("off"));
    EXPECT_TRUE(platform::parseEnvFlag("1"));
    EXPECT_TRUE(platform::parseEnvFlag("on"));
}

KernelGroup
gemmGroup(double flops, double bytes_param = 0)
{
    KernelGroup g;
    g.category = OpCategory::Gemm;
    g.onGpu = true;
    g.flops = flops;
    g.bytesParam = bytes_param;
    return g;
}

KernelGroup
elemGroup(double bytes)
{
    KernelGroup g;
    g.category = OpCategory::ElementWise;
    g.onGpu = true;
    g.bytesIn = bytes / 2;
    g.bytesOut = bytes / 2;
    g.flops = bytes / 8;
    return g;
}

TEST(DeviceSpecTest, PlatformsMatchTableIII)
{
    PlatformSpec a = platformA();
    EXPECT_EQ(a.id, "A");
    EXPECT_NE(a.cpu.name.find("EPYC"), std::string::npos);
    EXPECT_NE(a.gpu.name.find("A100"), std::string::npos);
    EXPECT_TRUE(a.gpu.isGpu);
    EXPECT_FALSE(a.cpu.isGpu);

    PlatformSpec b = platformB();
    EXPECT_NE(b.cpu.name.find("i9-13900K"), std::string::npos);
    EXPECT_NE(b.gpu.name.find("4090"), std::string::npos);
    EXPECT_THROW(platformById("C"), std::runtime_error);
    EXPECT_EQ(platformById("b").id, "B");
}

TEST(DeviceSpecTest, GemmPeakSelectsPrecision)
{
    DeviceSpec d;
    d.peakGflopsF32 = 10;
    d.peakGflopsTf32 = 100;
    d.peakGflopsF16 = 200;
    d.peakTopsI8 = 1;  // = 1000 GFLOPs
    EXPECT_EQ(d.gemmPeakGflops(false, false), 100);  // TF32 default
    EXPECT_EQ(d.gemmPeakGflops(true, false), 200);
    EXPECT_EQ(d.gemmPeakGflops(false, true), 1000);
}

TEST(CostModelTest, MonotoneInFlops)
{
    CostModel cm(platformA());
    double prev = 0;
    for (double f : {1e6, 1e8, 1e9, 1e11}) {
        double t = cm.price(gemmGroup(f)).totalUs();
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(CostModelTest, MonotoneInBytes)
{
    CostModel cm(platformA());
    double prev = 0;
    for (double by : {1e3, 1e6, 1e8, 1e9}) {
        double t = cm.price(elemGroup(by)).totalUs();
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(CostModelTest, ZeroCopyCostsOnlyHostConstant)
{
    CostModel cm(platformA());
    KernelGroup g;
    g.zeroCopy = true;
    g.kernelCount = 1;
    GroupTiming t = cm.price(g);
    EXPECT_EQ(t.deviceUs, 0.0);
    EXPECT_DOUBLE_EQ(t.hostUs, cm.params().zeroCopyUs);
}

TEST(CostModelTest, LaunchOverheadScalesWithKernelCount)
{
    CostModel cm(platformA());
    KernelGroup g = elemGroup(1e3);
    g.kernelCount = 1;
    g.bigKernels = 1;
    double t1 = cm.price(g).totalUs();
    g.kernelCount = 8;
    g.bigKernels = 8;
    double t8 = cm.price(g).totalUs();
    EXPECT_GT(t8, 6.0 * t1);
}

TEST(CostModelTest, BigKernelsMultiplyTraffic)
{
    CostModel cm(platformA());
    KernelGroup g = elemGroup(1e9);  // bandwidth-bound
    g.kernelCount = 2;
    g.bigKernels = 1;
    double t1 = cm.price(g).deviceUs;
    g.bigKernels = 2;
    double t2 = cm.price(g).deviceUs;
    EXPECT_GT(t2, 1.5 * t1);
}

TEST(CostModelTest, GpuFasterThanCpuForLargeGemm)
{
    CostModel cm(platformA());
    KernelGroup g = gemmGroup(1e12);
    double tg = cm.price(g).totalUs();
    g.onGpu = false;
    double tc = cm.price(g).totalUs();
    EXPECT_LT(tg, tc / 5.0);
}

TEST(CostModelTest, SmallGemmsRunFarFromPeak)
{
    // The utilization ramp: 1000 small GEMMs are much slower than one
    // GEMM with the same total flops.
    CostModel cm(platformA());
    double big = cm.price(gemmGroup(1e10)).deviceUs;
    double small_total = 1000.0 * cm.price(gemmGroup(1e7)).deviceUs;
    EXPECT_GT(small_total, 10.0 * big);
}

TEST(CostModelTest, F16HalvesGemmTimeAtScale)
{
    CostModel cm(platformA());
    KernelGroup g = gemmGroup(1e12);
    double f32 = cm.price(g).deviceUs;
    g.f16 = true;
    double f16 = cm.price(g).deviceUs;
    EXPECT_LT(f16, f32);
}

TEST(CostModelTest, Int8FasterThanF16Gemm)
{
    CostModel cm(platformA());
    KernelGroup g = gemmGroup(1e12);
    g.f16 = true;
    double f16 = cm.price(g).deviceUs;
    g.i8 = true;
    double i8 = cm.price(g).deviceUs;
    EXPECT_LT(i8, f16);
}

TEST(CostModelTest, TransferBytesAddPcieTime)
{
    CostModel cm(platformA());
    KernelGroup g = elemGroup(1e4);
    g.onGpu = false;
    double base = cm.price(g).totalUs();
    g.transferBytes = 24e6;  // 1 ms at 24 GB/s
    double with = cm.price(g).totalUs();
    EXPECT_NEAR(with - base, 1000.0 + 2 * cm.platform().pcieLatencyUs,
                50.0);
}

TEST(CostModelTest, HostSyncsAddDynamicCost)
{
    CostModel cm(platformA());
    KernelGroup g = elemGroup(1e3);
    double base = cm.price(g).hostUs;
    g.hostSyncs = 2;
    EXPECT_NEAR(cm.price(g).hostUs - base,
                2.0 * cm.params().dynamicSyncUs, 1e-9);
}

TEST(CostModelTest, NmsPaysSyncOnGpuOnly)
{
    CostModel cm(platformA());
    KernelGroup g;
    g.category = OpCategory::RoiSelection;
    g.onGpu = true;
    g.flops = 1e5;
    g.bytesIn = 1e4;
    double gpu_host = cm.price(g).hostUs;
    g.onGpu = false;
    double cpu_host = cm.price(g).hostUs;
    EXPECT_GT(gpu_host, cpu_host);
}

TEST(CostModelTest, DispatchOverrideRespected)
{
    CostModel cm(platformA());
    KernelGroup g = elemGroup(1e3);
    g.dispatchUsOverride = 1.0;
    EXPECT_DOUBLE_EQ(cm.price(g).hostUs, 1.0);
}

TEST(CostModelTest, FusedGroupsDispatchOnce)
{
    CostModel cm(platformA());
    KernelGroup g = elemGroup(1e3);
    g.fused = true;
    g.kernelCount = 1;
    EXPECT_DOUBLE_EQ(cm.price(g).hostUs, cm.params().fusedDispatchUs);
}

TEST(EnergyTest, GpuEnergyZeroWhenGpuDisabled)
{
    ExecutionPlan plan;
    plan.gpuEnabled = false;
    KernelGroup g = elemGroup(1e6);
    g.onGpu = false;
    plan.groups.push_back(g);
    CostModel cm(platformA());
    auto timings = cm.priceAll(plan);
    EnergyBreakdown e = energyOf(plan, timings, platformA());
    EXPECT_EQ(e.gpuJoules, 0.0);
    EXPECT_GT(e.cpuJoules, 0.0);
}

TEST(EnergyTest, EnergyGrowsWithWork)
{
    CostModel cm(platformA());
    ExecutionPlan small, large;
    small.gpuEnabled = large.gpuEnabled = true;
    small.groups.push_back(gemmGroup(1e9));
    large.groups.push_back(gemmGroup(1e12));
    auto es = energyOf(small, cm.priceAll(small), platformA());
    auto el = energyOf(large, cm.priceAll(large), platformA());
    EXPECT_GT(el.totalJoules(), es.totalJoules());
}

TEST(CostModelTest, RateScaleSpeedsExecution)
{
    CostModel cm(platformA());
    KernelGroup g = gemmGroup(1e11);
    double base = cm.price(g).deviceUs;
    g.rateScale = 2.0;
    EXPECT_LT(cm.price(g).deviceUs, base);
}

class LatencySweep : public ::testing::TestWithParam<double>
{
};

TEST_P(LatencySweep, LatencyPositiveAndFinite)
{
    CostModel cm(platformB());
    KernelGroup g = gemmGroup(GetParam());
    double t = cm.price(g).totalUs();
    EXPECT_GT(t, 0.0);
    EXPECT_TRUE(std::isfinite(t));
}

INSTANTIATE_TEST_SUITE_P(Flops, LatencySweep,
                         ::testing::Values(1.0, 1e3, 1e6, 1e9, 1e12,
                                           1e14));

}  // namespace
}  // namespace ngb
