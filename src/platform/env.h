#ifndef NGB_PLATFORM_ENV_H
#define NGB_PLATFORM_ENV_H

/**
 * @file
 * The one parser for on/off environment switches ($NGB_FUSE,
 * $NGB_POISON, $NGB_TRACE, $NGB_METRICS, $NGB_PERF).
 */

namespace ngb {
namespace platform {

/** Unset (null), "", "0" and "off" mean off; any other value means on. */
bool parseEnvFlag(const char *value);

/** parseEnvFlag(std::getenv(name)). */
bool envFlag(const char *name);

}  // namespace platform
}  // namespace ngb

#endif  // NGB_PLATFORM_ENV_H
