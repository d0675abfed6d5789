/**
 * @file
 * Strict decimal parsing for environment variables and command-line
 * arguments.
 *
 * atoi and atoll read "8x" as 8, "1k" as 1 and "abc" as 0, and an
 * unsigned cast turns "-5" into 2^64-5. parseDecimal takes the whole
 * string or nothing.
 */

#ifndef GALS_COMMON_PARSE_HH
#define GALS_COMMON_PARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace gals
{

/**
 * `text` as a base-10 integer in [lo, hi], or nothing. The whole
 * string must be one strtoll number (leading blanks and a sign
 * allowed): empty input, trailing characters and values strtoll
 * cannot represent fail, as do values outside [lo, hi].
 */
inline std::optional<std::int64_t>
parseDecimal(const char *text, std::int64_t lo, std::int64_t hi)
{
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi)
        return std::nullopt;
    return v;
}

/**
 * Command-line front end of parseDecimal: the value of option `what`,
 * or a message on stderr and exit status 2 (the usage-error status of
 * every example program) when it is not an integer in [lo, hi].
 */
inline std::int64_t
decimalArgOrExit(const char *what, const char *text, std::int64_t lo,
                 std::int64_t hi)
{
    if (std::optional<std::int64_t> v = parseDecimal(text, lo, hi))
        return *v;
    std::fprintf(stderr, "%s: \"%s\" is not an integer in [%lld, %lld]\n",
                 what, text, static_cast<long long>(lo),
                 static_cast<long long>(hi));
    std::exit(2);
}

} // namespace gals

#endif // GALS_COMMON_PARSE_HH
