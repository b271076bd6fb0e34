// text.hpp — model-to-text support (Fig. 2, step 4 is a "model-to-text
// transformation"). Two pieces:
//  * CodeWriter — indentation-aware emitter used by every generator
//    (mdl, C, C++ thread code);
//  * Template — minimal ${placeholder} expansion for boilerplate headers.
#pragma once

#include <map>
#include <string>
#include <string_view>

namespace uhcg::transform {

/// Indentation-aware text emitter.
class CodeWriter {
public:
    explicit CodeWriter(int indent_width = 4) : indent_width_(indent_width) {}

    /// Writes one line at the current indentation.
    CodeWriter& line(std::string_view text = {});
    /// Writes a line and increases indentation (e.g. "if (x) {").
    CodeWriter& open(std::string_view text);
    /// Decreases indentation and writes a line (e.g. "}").
    CodeWriter& close(std::string_view text = "}");
    /// Raw append, no indentation or newline.
    CodeWriter& raw(std::string_view text);
    CodeWriter& blank() { return line(); }

    void indent() { ++depth_; }
    void dedent();

    const std::string& str() const { return out_; }
    /// Moves the text out, leaving the writer empty.
    std::string take() { return std::move(out_); }

private:
    std::string out_;
    int indent_width_;
    int depth_ = 0;
};

/// Expands ${key} placeholders from the given map. Unknown placeholders
/// throw std::invalid_argument (silent misses breed broken codegen).
std::string expand_template(std::string_view text,
                            const std::map<std::string, std::string>& values);

/// Makes an arbitrary name a valid C identifier (non-alnum → '_', leading
/// digit prefixed). Collision-free renaming is the caller's concern.
std::string sanitize_identifier(std::string_view name);

/// True for a decimal literal such as "1.0", "-2" or "+.5": an optional
/// sign, then digits with at most one '.', and at least one digit. Message
/// arguments of this shape are constants, not variables.
bool is_numeric_literal(std::string_view text);

}  // namespace uhcg::transform
