// json.hpp — minimal JSON reader for the observability tooling.
//
// The repo's emitters build JSON by hand; the perf gate and the obs test
// suite also need to *read* it back (bench reports, trace files). This is
// a small recursive-descent parser over a DOM `Value` — strict enough to
// reject malformed documents, with line/column in the error message. It
// deliberately lives in `obs` (dependency-free) so tools and tests can
// link it without pulling in the model stack.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace uhcg::obs::json {

class Value {
public:
    enum class Kind { Null, Boolean, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    /// Insertion-ordered — round-trips preserve author ordering.
    std::vector<std::pair<std::string, Value>> object;

    bool is_null() const { return kind == Kind::Null; }
    bool is_bool() const { return kind == Kind::Boolean; }
    bool is_number() const { return kind == Kind::Number; }
    bool is_string() const { return kind == Kind::String; }
    bool is_array() const { return kind == Kind::Array; }
    bool is_object() const { return kind == Kind::Object; }

    /// First member named `key`, or nullptr (also for non-objects).
    const Value* find(std::string_view key) const;
};

/// `value` as an unsigned integer of type `T`, or nullopt unless it is a
/// finite, non-negative, integral number that fits `T`. Counts read from
/// untrusted documents go through here: a plain `static_cast` of a negative
/// or out-of-range double is undefined behaviour, and of a fractional one
/// silently truncates.
template <typename T>
std::optional<T> to_unsigned(const Value& value) {
    static_assert(std::is_unsigned_v<T>);
    if (!value.is_number()) return std::nullopt;
    const double n = value.number;
    // 2^digits is exact as a double, and every integral double below it
    // fits T.
    if (!(n >= 0) || n != std::floor(n) ||
        n >= std::ldexp(1.0, std::numeric_limits<T>::digits))
        return std::nullopt;
    return static_cast<T>(n);
}

/// Resource limits enforced while parsing. The defaults are generous
/// enough for every trusted artifact in the repo (bench reports, traces),
/// yet bound the two unbounded-input hazards: recursion depth (a deeply
/// nested document must not overflow the stack) and input size. Callers
/// parsing *untrusted* bytes — the serve daemon's request frames — pass
/// deliberately tighter limits.
struct ParseLimits {
    /// Maximum container nesting depth (objects + arrays). 0 rejects any
    /// container; the default comfortably covers hand-written documents
    /// while keeping recursion shallow.
    std::size_t max_depth = 128;
    /// Maximum input size in bytes; 0 = unlimited.
    std::size_t max_bytes = 0;
};

/// Parses one JSON document (trailing whitespace allowed, trailing junk
/// rejected). On failure returns false and sets `error` to a
/// "line:column: message" description. Limit violations are structured
/// parse errors, never crashes: "nesting exceeds depth limit <n>" and
/// "input exceeds size limit <n> bytes".
bool parse(std::string_view text, Value& out, std::string& error,
           const ParseLimits& limits = {});

}  // namespace uhcg::obs::json
