/**
 * @file
 * Minimal JSON support: a deterministic streaming writer (the format
 * every experiment report is serialized in) and a small recursive-
 * descent parser used to load reports back and to round-trip-test the
 * writer.  No external dependencies; numbers are written with
 * shortest-round-trip formatting so equal doubles always produce equal
 * bytes (the grid runner's determinism guarantee relies on this).
 */

#ifndef CSCHED_SUPPORT_JSON_HH
#define CSCHED_SUPPORT_JSON_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/status.hh"

namespace csched {

/** Escape @p text for inclusion in a JSON string literal (no quotes). */
std::string escapeJson(const std::string &text);

/**
 * Collapse a JsonWriter's pretty-printed output to one line: drop
 * every newline plus its following indentation.  Literal newlines
 * never appear inside JSON string literals (escapeJson escapes them),
 * so this is a pure formatting transform.  Used wherever a document
 * must be a single line: journal records, worker pipe frames.
 */
std::string compactJson(const std::string &pretty);

/**
 * Streaming JSON writer producing deterministically formatted,
 * 2-space-indented output.  Usage:
 *
 *   JsonWriter w(out);
 *   w.beginObject();
 *   w.key("makespan").value(42);
 *   w.key("trace").beginArray(); ... w.endArray();
 *   w.endObject();
 *
 * Structural errors (value without key inside an object, unbalanced
 * end calls) are programming errors and panic.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out);
    ~JsonWriter();

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next emission must be its value. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &text);
    JsonWriter &value(const char *text);
    JsonWriter &value(int number);
    JsonWriter &value(int64_t number);
    JsonWriter &value(uint64_t number);
    JsonWriter &value(double number);
    JsonWriter &value(bool flag);
    JsonWriter &nullValue();

    /** Whole-array conveniences for the common numeric payloads. */
    JsonWriter &value(const std::vector<int> &numbers);
    JsonWriter &value(const std::vector<double> &numbers);

  private:
    enum class Scope { Object, Array };
    struct Level
    {
        Scope scope;
        int items = 0;
        bool keyPending = false;
    };

    void beforeItem();
    void raw(const std::string &text);
    void indent();

    std::ostream &out_;
    std::vector<Level> stack_;
};

/** Parsed JSON document node. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion-ordered key/value pairs. */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &name) const;

    /** Object member access; fatal when absent (tests only). */
    const JsonValue &at(const std::string &name) const;

    int asInt() const;
    double asDouble() const;
};

/**
 * Parse a complete JSON document.  Returns std::nullopt on syntax
 * errors and, when @p error is non-null, stores position + reason.
 * Supports the full value grammar minus \uXXXX surrogate pairs
 * (non-BMP escapes), which the writer never emits.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

/**
 * Typed reads of the members of one parsed JSON object: the one place
 * where outside input (a peer's frame, a journal line, a stream trace,
 * a bench baseline) is checked before a decoder uses it.  Reads chain
 * and the first failure sticks, so a decoder reads every member and
 * checks status() once.  get() requires the member; optional() leaves
 * *out untouched when it is absent.  *out is a std::string, bool,
 * finite double, int, int64_t or uint64_t (whole, in range of the type
 * and >= @p min, checked before any cast), std::vector<int>, or a
 * pointer to an object (const JsonValue *) or an array (const
 * std::vector<JsonValue> *).  A failure is an InvalidSpec status that
 * names the member: "request 'deadlineMs' must be a non-negative
 * integer".
 */
class JsonFields
{
  public:
    /** @p what names the object in messages; a non-object fails. */
    JsonFields(const JsonValue &object, std::string what);

    template <typename T>
    JsonFields &
    get(const char *name, T *out, int64_t min = INT64_MIN)
    {
        return read(name, true, out, min);
    }

    template <typename T>
    JsonFields &
    optional(const char *name, T *out, int64_t min = INT64_MIN)
    {
        return read(name, false, out, min);
    }

    /** A string member that must equal @p value, e.g. a schema tag. */
    JsonFields &expect(const char *name, const std::string &value);

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

  private:
    /** Member @p name; nullptr when absent (an error if required). */
    const JsonValue *member(const char *name, bool required);
    JsonFields &mistyped(const char *name, const char *expected);
    /** Whether @p value is a whole number in [min, 2^digits). */
    static bool whole(const JsonValue &value, double min, int digits);

    template <typename T>
    JsonFields &
    read(const char *name, bool required, T *out, int64_t min)
    {
        using Kind = JsonValue::Kind;
        const JsonValue *v = member(name, required);
        if (v == nullptr)
            return *this;
        if constexpr (std::is_same_v<T, std::string>) {
            if (v->kind != Kind::String)
                return mistyped(name, "a string");
            *out = v->string;
        } else if constexpr (std::is_same_v<T, bool>) {
            if (v->kind != Kind::Bool)
                return mistyped(name, "a boolean");
            *out = v->boolean;
        } else if constexpr (std::is_same_v<T, double>) {
            if (v->kind != Kind::Number || !std::isfinite(v->number))
                return mistyped(name, "a finite number");
            *out = v->number;
        } else if constexpr (std::is_integral_v<T>) {
            using Limits = std::numeric_limits<T>;
            const double lower = std::max<double>(min, Limits::lowest());
            if (!whole(*v, lower, Limits::digits))
                return mistyped(name, lower == 0   ? "a non-negative integer"
                                      : lower == 1 ? "a positive integer"
                                                   : "an integer");
            *out = static_cast<T>(v->number);
        } else if constexpr (std::is_same_v<T, std::vector<int>>) {
            if (v->kind != Kind::Array)
                return mistyped(name, "an array of integers");
            out->clear();
            for (const JsonValue &entry : v->array) {
                if (!whole(entry, INT32_MIN, 31))
                    return mistyped(name, "an array of integers");
                out->push_back(static_cast<int>(entry.number));
            }
        } else {
            constexpr bool object = std::is_same_v<T, const JsonValue *>;
            if (v->kind != (object ? Kind::Object : Kind::Array))
                return mistyped(name, object ? "an object" : "an array");
            if constexpr (object)
                *out = v;
            else
                *out = &v->array;
        }
        return *this;
    }

    const JsonValue &object_;
    std::string what_;
    Status status_;
};

} // namespace csched

#endif // CSCHED_SUPPORT_JSON_HH
