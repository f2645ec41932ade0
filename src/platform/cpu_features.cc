#include "platform/cpu_features.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define NGB_X86 1
#endif

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#define NGB_AARCH64_LINUX 1
#endif

#include "platform/simd.h"

namespace ngb {
namespace platform {

namespace {

#ifdef NGB_X86

struct X86Features {
    bool avx2 = false;
    bool avx512 = false;
    bool vnni = false;
    std::string tag = "x86_64";
};

/** xgetbv(0): which register states the OS saves/restores. */
uint64_t
readXcr0()
{
    uint32_t eax = 0, edx = 0;
    __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
    return (static_cast<uint64_t>(edx) << 32) | eax;
}

X86Features
detectX86()
{
    X86Features f;
    unsigned eax, ebx, ecx, edx;
    if (!__get_cpuid(0, &eax, &ebx, &ecx, &edx))
        return f;
    unsigned maxLeaf = eax;
    {
        char vendor[13] = {};
        std::memcpy(vendor + 0, &ebx, 4);
        std::memcpy(vendor + 4, &edx, 4);
        std::memcpy(vendor + 8, &ecx, 4);
        f.tag = vendor;
    }
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return f;
    f.tag += "-fam" + std::to_string((eax >> 8) & 0xf) + "-mod" +
             std::to_string(((eax >> 4) & 0xf) | ((eax >> 12) & 0xf0));
    bool osxsave = ecx & (1u << 27);
    bool avx = ecx & (1u << 28);
    bool fma = ecx & (1u << 12);
    if (!(osxsave && avx) || maxLeaf < 7)
        return f;
    uint64_t xcr0 = readXcr0();
    bool ymmOs = (xcr0 & 0x6) == 0x6;          // XMM+YMM state saved
    bool zmmOs = (xcr0 & 0xe6) == 0xe6;        // + opmask, ZMM state
    unsigned b7, c7, d7, a7;
    __cpuid_count(7, 0, a7, b7, c7, d7);
    f.avx2 = ymmOs && fma && (b7 & (1u << 5));
    bool f512 = b7 & (1u << 16), bw = b7 & (1u << 30);
    bool vl = b7 & (1u << 31), dq = b7 & (1u << 17);
    f.avx512 = zmmOs && f.avx2 && f512 && bw && vl && dq;
    f.vnni = f.avx512 && (c7 & (1u << 11));
    return f;
}

const X86Features &
x86Features()
{
    static const X86Features f = detectX86();
    return f;
}

#endif  // NGB_X86

/** Active-level override state, guarded for the tests that flip it. */
std::mutex gIsaMutex;
bool gHaveOverride = false;
IsaLevel gOverride = IsaLevel::Scalar;

/** Parse + clamp the ambient $NGB_ISA once. */
void
applyEnvOverrideOnce()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *env = std::getenv("NGB_ISA");
        if (!env || !*env)
            return;
        IsaLevel want;
        try {
            want = isaFromName(env);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "NGB_ISA: %s (ignored)\n", e.what());
            return;
        }
        IsaLevel got = clampIsa(want);
        if (got != want)
            std::fprintf(stderr,
                         "NGB_ISA=%s not supported on this host/build; "
                         "clamping to %s\n",
                         env, isaName(got));
        gHaveOverride = true;
        gOverride = got;
    });
}

/**
 * @p level, or the nearest level below it whose kernels were compiled
 * in. Neon and the x86 levels each degrade to Scalar, whose portable
 * table always exists.
 */
IsaLevel
compiledAtOrBelow(IsaLevel level)
{
    while (level != IsaLevel::Scalar && !simd::simdOpsFor(level)) {
        if (level == IsaLevel::Neon)
            level = IsaLevel::Scalar;
        else
            level = static_cast<IsaLevel>(static_cast<int>(level) - 1);
    }
    return level;
}

}  // namespace

const char *
isaName(IsaLevel level)
{
    switch (level) {
    case IsaLevel::Scalar: return "scalar";
    case IsaLevel::Neon: return "neon";
    case IsaLevel::Avx2: return "avx2";
    case IsaLevel::Avx512: return "avx512";
    }
    return "scalar";
}

IsaLevel
isaFromName(const std::string &name)
{
    if (name == "auto")
        return detectIsa();
    if (name == "scalar")
        return IsaLevel::Scalar;
    if (name == "neon")
        return IsaLevel::Neon;
    if (name == "avx2")
        return IsaLevel::Avx2;
    if (name == "avx512")
        return IsaLevel::Avx512;
    throw std::runtime_error(
        "unknown ISA level '" + name +
        "' (known: auto, scalar, neon, avx2, avx512)");
}

IsaLevel
detectHardwareIsa()
{
#ifdef NGB_X86
    if (x86Features().avx512)
        return IsaLevel::Avx512;
    if (x86Features().avx2)
        return IsaLevel::Avx2;
    return IsaLevel::Scalar;
#elif defined(__aarch64__)
    // aarch64 baseline mandates ASIMD; getauxval confirms on Linux.
#ifdef NGB_AARCH64_LINUX
    return (getauxval(AT_HWCAP) & (1 << 1) /* HWCAP_ASIMD */)
               ? IsaLevel::Neon
               : IsaLevel::Scalar;
#else
    return IsaLevel::Neon;
#endif
#else
    return IsaLevel::Scalar;
#endif
}

IsaLevel
detectIsa()
{
    // Clamp to the levels whose kernels were compiled in; a build
    // without the per-ISA flags degrades to Scalar, where the simd
    // backend runs its portable kernels.
    static const IsaLevel level = compiledAtOrBelow(detectHardwareIsa());
    return level;
}

IsaLevel
clampIsa(IsaLevel want)
{
    return compiledAtOrBelow(want > detectIsa() ? detectIsa() : want);
}

bool
hasVnni()
{
#ifdef NGB_X86
    return x86Features().vnni;
#else
    return false;
#endif
}

bool
hasDotprod()
{
#ifdef NGB_AARCH64_LINUX
    return getauxval(AT_HWCAP) & (1 << 20) /* HWCAP_ASIMDDP */;
#elif defined(__ARM_FEATURE_DOTPROD)
    return true;
#else
    return false;
#endif
}

IsaLevel
activeIsa()
{
    applyEnvOverrideOnce();
    std::lock_guard<std::mutex> lock(gIsaMutex);
    return gHaveOverride ? gOverride : detectIsa();
}

void
setActiveIsa(IsaLevel level)
{
    if (clampIsa(level) != level) {
        std::string supported;
        for (IsaLevel l : supportedIsaLevels())
            supported += std::string(supported.empty() ? "" : ", ") +
                         isaName(l);
        throw std::runtime_error(std::string("--isa ") + isaName(level) +
                                 " not supported on this host/build "
                                 "(supported: " +
                                 supported + ")");
    }
    applyEnvOverrideOnce();
    std::lock_guard<std::mutex> lock(gIsaMutex);
    gHaveOverride = true;
    gOverride = level;
}

void
setActiveIsaName(const std::string &name)
{
    if (name == "auto") {
        applyEnvOverrideOnce();
        std::lock_guard<std::mutex> lock(gIsaMutex);
        gHaveOverride = false;
        return;
    }
    setActiveIsa(isaFromName(name));
}

std::vector<IsaLevel>
supportedIsaLevels()
{
    std::vector<IsaLevel> levels;
    for (IsaLevel l : {IsaLevel::Scalar, IsaLevel::Neon, IsaLevel::Avx2,
                       IsaLevel::Avx512})
        if (clampIsa(l) == l)
            levels.push_back(l);
    return levels;
}

const std::string &
machineTag()
{
    static const std::string tag = [] {
#ifdef NGB_X86
        return x86Features().tag;
#elif defined(__aarch64__)
        return std::string("aarch64");
#else
        return std::string("generic");
#endif
    }();
    return tag;
}

}  // namespace platform
}  // namespace ngb
