#include "transform/text.hpp"

#include <cctype>
#include <stdexcept>

namespace uhcg::transform {

CodeWriter& CodeWriter::line(std::string_view text) {
    if (!text.empty())
        out_.append(static_cast<std::size_t>(depth_ * indent_width_), ' ');
    out_ += text;
    out_ += '\n';
    return *this;
}

CodeWriter& CodeWriter::open(std::string_view text) {
    line(text);
    indent();
    return *this;
}

CodeWriter& CodeWriter::close(std::string_view text) {
    dedent();
    line(text);
    return *this;
}

CodeWriter& CodeWriter::raw(std::string_view text) {
    out_ += text;
    return *this;
}

void CodeWriter::dedent() {
    if (depth_ == 0) throw std::logic_error("CodeWriter: dedent below zero");
    --depth_;
}

std::string expand_template(std::string_view text,
                            const std::map<std::string, std::string>& values) {
    std::string out;
    out.reserve(text.size());
    std::size_t i = 0;
    while (i < text.size()) {
        if (text[i] == '$' && i + 1 < text.size() && text[i + 1] == '{') {
            std::size_t end = text.find('}', i + 2);
            if (end == std::string_view::npos)
                throw std::invalid_argument("unterminated ${...} placeholder");
            std::string key(text.substr(i + 2, end - i - 2));
            auto it = values.find(key);
            if (it == values.end())
                throw std::invalid_argument("template placeholder '${" + key +
                                            "}' has no value");
            out += it->second;
            i = end + 1;
        } else {
            out += text[i++];
        }
    }
    return out;
}

std::string sanitize_identifier(std::string_view name) {
    std::string out;
    out.reserve(name.size());
    for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
        out.insert(out.begin(), '_');
    return out;
}

bool is_numeric_literal(std::string_view text) {
    if (text.empty()) return false;
    std::size_t i = (text[0] == '-' || text[0] == '+') ? 1 : 0;
    bool digit = false, dot = false;
    for (; i < text.size(); ++i) {
        if (std::isdigit(static_cast<unsigned char>(text[i]))) {
            digit = true;
        } else if (text[i] == '.' && !dot) {
            dot = true;
        } else {
            return false;
        }
    }
    return digit;
}

}  // namespace uhcg::transform
