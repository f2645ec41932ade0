#ifndef NGB_PLATFORM_CPU_FEATURES_H
#define NGB_PLATFORM_CPU_FEATURES_H

#include <string>
#include <vector>

/**
 * @file
 * Runtime CPU-feature detection and the active-ISA dispatch level.
 *
 * The simd backend compiles one translation unit per ISA (see
 * CMakeLists.txt: per-source -mavx2 / -mavx512 / -march flags) and
 * picks
 * between them at runtime: detectIsa() interrogates the hardware
 * (cpuid on x86, getauxval/compile flags on aarch64), the build
 * clamps that to the levels actually compiled in, and activeIsa()
 * applies the user's override ($NGB_ISA or --isa) on top. Everything
 * downstream — kernel registration, tuning-cache keys, EngineKey —
 * reads activeIsa(), so one knob moves the whole stack.
 *
 * Override semantics: forcing any level in supportedIsaLevels() is
 * allowed (that is how CI runs the forced-scalar dispatch leg on
 * AVX-512 runners); forcing a level the host or the build cannot
 * dispatch to — one above detectIsa(), or neon on x86 and avx2/avx512
 * on aarch64 — is a loud error from setActiveIsa, and a clamp
 * (clampIsa) with a stderr warning when it comes from the ambient
 * $NGB_ISA.
 */

namespace ngb {
namespace platform {

/**
 * Vector dispatch levels, ordered within an architecture: an x86 host
 * at Avx512 also runs Avx2, and every host runs Scalar. Neon and the
 * x86 levels are mutually exclusive; each degrades to Scalar
 * (clampIsa).
 */
enum class IsaLevel : int {
    Scalar = 0,  ///< no explicit SIMD: the simd backend runs its
                 ///< portable (baseline-flags) kernels
    Neon = 1,    ///< aarch64 ASIMD (+ sdot when the CPU has DOTPROD)
    Avx2 = 2,    ///< x86 AVX2 + FMA, 8-wide f32
    Avx512 = 3,  ///< x86 AVX-512 F/BW/VL/DQ, 16-wide f32 (+ VNNI)
};

/** Canonical lower-case name ("scalar", "neon", "avx2", "avx512"). */
const char *isaName(IsaLevel level);

/** Parse a name (or "auto" -> detected best); throws listing the
 *  known names on anything else. */
IsaLevel isaFromName(const std::string &name);

/** Best level the HARDWARE supports (cached; ignores build flags). */
IsaLevel detectHardwareIsa();

/**
 * Best level this process can dispatch to: hardware support clamped
 * to the levels whose translation units were compiled in.
 */
IsaLevel detectIsa();

/** True when the hardware has AVX-512 VNNI (vpdpbusd) — the int8
 *  dot-product unit the quantized GEMM path uses at Avx512 level. */
bool hasVnni();

/** True when the hardware has aarch64 DOTPROD (sdot). */
bool hasDotprod();

/**
 * Nearest level at or below @p want that this host/build can dispatch
 * to: @p want itself when it is in supportedIsaLevels().
 */
IsaLevel clampIsa(IsaLevel want);

/**
 * The dispatch level in effect: the $NGB_ISA override (validated and
 * clamped with clampIsa() and a stderr warning when unsupported) when
 * set, else detectIsa().
 */
IsaLevel activeIsa();

/**
 * Force the dispatch level for this process (the --isa flag and the
 * per-level tests). Throws when @p level is not in
 * supportedIsaLevels() — a forced level must actually run on this
 * host/build.
 */
void setActiveIsa(IsaLevel level);

/** setActiveIsa(isaFromName(name)); "auto" restores detection. */
void setActiveIsaName(const std::string &name);

/** Levels this host/build can dispatch to, ascending (always starts
 *  with Scalar). The per-level differential tests sweep this. */
std::vector<IsaLevel> supportedIsaLevels();

/**
 * A stable identity string for the machine's tuning-relevant
 * microarchitecture (x86 vendor+family/model or a generic tag), used
 * by the tuning cache to invalidate entries tuned on another box.
 */
const std::string &machineTag();

}  // namespace platform
}  // namespace ngb

#endif  // NGB_PLATFORM_CPU_FEATURES_H
