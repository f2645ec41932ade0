#ifndef NGB_TESTS_BACKEND_SETS_H
#define NGB_TESTS_BACKEND_SETS_H

#include <vector>

#include "ops/simd_backend.h"
#include "platform/cpu_features.h"

namespace ngb {

/**
 * The fast tier as the differential suites run it: the simd backend at
 * the portable level, plus the process dispatch level when that is a
 * vector level (the CI legs pin it through $NGB_ISA).
 */
inline std::vector<Backend>
fastBackends()
{
    std::vector<Backend> out;
    out.push_back(makeSimdBackend(platform::IsaLevel::Scalar));
    if (platform::activeIsa() != platform::IsaLevel::Scalar)
        out.push_back(makeSimdBackend(platform::activeIsa()));
    return out;
}

/** Restore the process dispatch level on scope exit, so per-level
 *  tests cannot leak a forced ISA into later tests. */
class IsaGuard
{
  public:
    IsaGuard() : saved_(platform::activeIsa()) {}
    ~IsaGuard() { platform::setActiveIsa(saved_); }

  private:
    platform::IsaLevel saved_;
};

/** The reference oracle followed by every backend in @p fast. */
inline std::vector<const Backend *>
withReference(const std::vector<Backend> &fast)
{
    std::vector<const Backend *> out = {&referenceBackend()};
    for (const Backend &b : fast)
        out.push_back(&b);
    return out;
}

}  // namespace ngb

#endif  // NGB_TESTS_BACKEND_SETS_H
