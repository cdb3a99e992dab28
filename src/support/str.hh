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
 * Strict parses of a command-line or rule value: the whole of @p text
 * must be consumed ("2abc", " 2" and "+2" are rejected), and a value
 * out of range of the type, a negative int or a non-finite double
 * ("nan", "inf") is nullopt.  Every tool parses its numeric flags
 * through these, as do fault rules, --dist-opts and policy options.
 */
std::optional<int> parseNonNegativeIntFlag(const std::string &text);
std::optional<uint64_t> parseUint64Flag(const std::string &text);
std::optional<double> parseFiniteDoubleFlag(const std::string &text);

} // namespace csched

#endif // CSCHED_SUPPORT_STR_HH
