/**
 * @file
 * Strict parsing of numeric environment knobs.
 */

#ifndef ATHENA_COMMON_ENV_HH
#define ATHENA_COMMON_ENV_HH

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

namespace athena
{

/**
 * The unsigned decimal value of environment variable @p name, or
 * @p fallback when it is unset or empty.
 *
 * @throw std::invalid_argument naming the variable when the value
 *        is anything but digits (a sign, spaces, trailing text) or
 *        exceeds @p max — a typo must not silently become 0 or the
 *        default.
 */
inline std::uint64_t
envUnsigned(const char *name, std::uint64_t fallback,
            std::uint64_t max = UINT64_MAX)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    const char *end = v + std::strlen(v);
    std::uint64_t out = 0;
    const auto [ptr, ec] = std::from_chars(v, end, out);
    if (ec != std::errc{} || ptr != end || out > max) {
        throw std::invalid_argument(
            std::string(name) + "='" + v +
            "' is not an unsigned integer" +
            (max == UINT64_MAX ? "" : " <= " + std::to_string(max)));
    }
    return out;
}

} // namespace athena

#endif // ATHENA_COMMON_ENV_HH
