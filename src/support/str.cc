#include "support/str.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace csched {

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string current;
    for (char ch : text) {
        if (ch == sep) {
            out.push_back(current);
            current.clear();
        } else {
            current.push_back(ch);
        }
    }
    out.push_back(current);
    return out;
}

std::string
trim(const std::string &text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

std::string
toUpper(const std::string &text)
{
    std::string out = text;
    for (char &ch : out)
        ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
formatDouble(double value, int decimals)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    return buffer;
}

uint64_t
fnv1aHash(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

namespace {

/** @p text parsed by from_chars; nullopt unless all of it is consumed. */
template <typename T>
std::optional<T>
parseWhole(const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    return ec == std::errc() && ptr == end ? std::optional(value)
                                           : std::nullopt;
}

} // namespace

std::optional<int>
parseNonNegativeIntFlag(const std::string &text)
{
    const auto value = parseWhole<int>(text);
    return value.value_or(-1) >= 0 ? value : std::nullopt;
}

std::optional<uint64_t>
parseUint64Flag(const std::string &text)
{
    return parseWhole<uint64_t>(text);
}

std::optional<double>
parseFiniteDoubleFlag(const std::string &text)
{
    const auto value = parseWhole<double>(text);
    return value.has_value() && std::isfinite(*value) ? value : std::nullopt;
}

} // namespace csched
