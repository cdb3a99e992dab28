/**
 * @file
 * String helpers: split/trim/join/case used by the pass-sequence parser
 * and the table printer.
 */

#ifndef CSCHED_SUPPORT_STR_HH
#define CSCHED_SUPPORT_STR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace csched {

/** Split @p text on @p sep; empty fields are preserved. */
std::vector<std::string> split(const std::string &text, char sep);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(const std::string &text);

/** Upper-case ASCII letters in place-free fashion. */
std::string toUpper(const std::string &text);

/** Join @p parts with @p sep between consecutive elements. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** printf-style double formatting with @p decimals fraction digits. */
std::string formatDouble(double value, int decimals);

/**
 * 64-bit FNV-1a of @p text: stable across platforms and runs, unlike
 * std::hash.  Seeds every per-key deterministic draw (fault-injection
 * probability rules, retry-backoff jitter).
 */
uint64_t fnv1aHash(const std::string &text);

/**
 * Strict parse of a non-negative int command-line value: the whole of
 * @p text must be consumed ("2abc" and "-1" are rejected).  nullopt on
 * anything else.  Every tool parses its integer flags through this.
 */
std::optional<int> parseNonNegativeIntFlag(const std::string &text);

} // namespace csched

#endif // CSCHED_SUPPORT_STR_HH
