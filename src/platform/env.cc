#include "platform/env.h"

#include <cstdlib>
#include <cstring>

namespace ngb {
namespace platform {

bool
parseEnvFlag(const char *value)
{
    return value != nullptr && *value != '\0' &&
           std::strcmp(value, "0") != 0 && std::strcmp(value, "off") != 0;
}

bool
envFlag(const char *name)
{
    return parseEnvFlag(std::getenv(name));
}

}  // namespace platform
}  // namespace ngb
