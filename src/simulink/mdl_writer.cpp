#include <charconv>
#include <fstream>

#include "simulink/mdl.hpp"

namespace uhcg::simulink {
namespace {

/// Appends the whole text into one buffer: no stream, no temporary string
/// per value.
class MdlWriter {
public:
    std::string take() { return std::move(out_); }

    void indent(int depth) { out_.append(static_cast<std::size_t>(depth) * 2, ' '); }

    void text(std::string_view s) { out_ += s; }

    void number(long long n) {
        char buf[24];
        out_.append(buf, std::to_chars(buf, buf + sizeof buf, n).ptr);
    }

    /// `s` in double quotes. Newlines are escaped so multi-line values
    /// (S-function C sources) survive the line-oriented mdl format. The
    /// runs between escapes are appended whole.
    void quoted(std::string_view s) {
        out_ += '"';
        for (std::size_t at = s.find_first_of("\"\\\n"); at != std::string_view::npos;
             at = s.find_first_of("\"\\\n")) {
            out_ += s.substr(0, at);
            out_ += '\\';
            out_ += s[at] == '\n' ? 'n' : s[at];
            s.remove_prefix(at + 1);
        }
        out_ += s;
        out_ += '"';
    }

    /// One `Key "value"` line at `depth`.
    void quoted_line(int depth, std::string_view key, std::string_view value) {
        indent(depth);
        out_ += key;
        out_ += ' ';
        quoted(value);
        out_ += '\n';
    }

    /// One `Key n` line at `depth`.
    void number_line(int depth, std::string_view key, long long n) {
        indent(depth);
        out_ += key;
        out_ += ' ';
        number(n);
        out_ += '\n';
    }

    void port_names(const Block& block, bool inputs, int depth) {
        const int count = inputs ? block.input_count() : block.output_count();
        for (int p = 1; p <= count; ++p) {
            const std::string& n = inputs ? block.input_name(p) : block.output_name(p);
            if (n.empty()) continue;
            indent(depth);
            out_ += inputs ? "InPortName [" : "OutPortName [";
            number(p);
            out_ += "] ";
            quoted(n);
            out_ += '\n';
        }
    }

    void block(const Block& block, int depth) {
        indent(depth);
        out_ += "Block {\n";
        indent(depth + 1);
        out_ += "BlockType ";
        out_ += to_string(block.type());
        out_ += '\n';
        quoted_line(depth + 1, "Name", block.name());
        indent(depth + 1);
        out_ += "Ports [";
        number(block.input_count());
        out_ += ", ";
        number(block.output_count());
        out_ += "]\n";
        if (block.role() != CaamRole::None)
            quoted_line(depth + 1, "Tag", to_string(block.role()));
        for (const auto& [key, value] : block.parameters())
            quoted_line(depth + 1, key, value);
        // Port names are serialized as PortName lines so the parser can
        // restore S-function argument labels.
        port_names(block, true, depth + 1);
        port_names(block, false, depth + 1);
        if (block.system()) system(*block.system(), depth + 1);
        indent(depth);
        out_ += "}\n";
    }

    void line(const Line& line, int depth) {
        indent(depth);
        out_ += "Line {\n";
        if (!line.name().empty()) quoted_line(depth + 1, "Name", line.name());
        quoted_line(depth + 1, "SrcBlock", line.source().block->name());
        number_line(depth + 1, "SrcPort", line.source().port);
        if (line.destinations().size() == 1) {
            const PortRef& dst = line.destinations().front();
            quoted_line(depth + 1, "DstBlock", dst.block->name());
            number_line(depth + 1, "DstPort", dst.port);
        } else {
            for (const PortRef& dst : line.destinations()) {
                indent(depth + 1);
                out_ += "Branch {\n";
                quoted_line(depth + 2, "DstBlock", dst.block->name());
                number_line(depth + 2, "DstPort", dst.port);
                indent(depth + 1);
                out_ += "}\n";
            }
        }
        indent(depth);
        out_ += "}\n";
    }

    void system(const System& system, int depth) {
        indent(depth);
        out_ += "System {\n";
        quoted_line(depth + 1, "Name", system.name());
        for (const Block* b : system.block_view()) block(*b, depth + 1);
        for (const Line* l : system.line_view()) line(*l, depth + 1);
        indent(depth);
        out_ += "}\n";
    }

private:
    std::string out_;
};

}  // namespace

std::string write_mdl(const Model& model) {
    MdlWriter w;
    w.text("Model {\n");
    w.quoted_line(1, "Name", model.name());
    w.quoted_line(1, "Solver", model.solver);
    w.quoted_line(1, "StopTime", std::to_string(model.stop_time));
    w.quoted_line(1, "FixedStep", std::to_string(model.fixed_step));
    w.system(model.root(), 1);
    w.text("}\n");
    return w.take();
}

void save_mdl(const Model& model, const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open mdl file for writing: " + path);
    out << write_mdl(model);
    if (!out) throw std::runtime_error("failed writing mdl file: " + path);
}

}  // namespace uhcg::simulink
