#include <fstream>
#include <sstream>

#include "simulink/mdl.hpp"

namespace uhcg::simulink {
namespace {

void indent(std::ostream& out, int depth) {
    for (int i = 0; i < depth; ++i) out << "  ";
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        // Newlines are escaped so multi-line values (S-function C sources)
        // survive the line-oriented mdl format.
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

void write_system(std::ostream& out, const System& system, int depth);

void write_block(std::ostream& out, const Block& block, int depth) {
    indent(out, depth);
    out << "Block {\n";
    indent(out, depth + 1);
    out << "BlockType " << to_string(block.type()) << '\n';
    indent(out, depth + 1);
    out << "Name " << quoted(block.name()) << '\n';
    indent(out, depth + 1);
    out << "Ports [" << block.input_count() << ", " << block.output_count()
        << "]\n";
    if (block.role() != CaamRole::None) {
        indent(out, depth + 1);
        out << "Tag " << quoted(std::string(to_string(block.role()))) << '\n';
    }
    for (const auto& [key, value] : block.parameters()) {
        indent(out, depth + 1);
        out << key << ' ' << quoted(value) << '\n';
    }
    // Port names are serialized as PortName lines so the parser can
    // restore S-function argument labels.
    for (int p = 1; p <= block.input_count(); ++p) {
        std::string n = block.input_name(p);
        if (n.empty()) continue;
        indent(out, depth + 1);
        out << "InPortName [" << p << "] " << quoted(n) << '\n';
    }
    for (int p = 1; p <= block.output_count(); ++p) {
        std::string n = block.output_name(p);
        if (n.empty()) continue;
        indent(out, depth + 1);
        out << "OutPortName [" << p << "] " << quoted(n) << '\n';
    }
    if (block.system()) write_system(out, *block.system(), depth + 1);
    indent(out, depth);
    out << "}\n";
}

void write_line(std::ostream& out, const Line& line, int depth) {
    indent(out, depth);
    out << "Line {\n";
    if (!line.name().empty()) {
        indent(out, depth + 1);
        out << "Name " << quoted(line.name()) << '\n';
    }
    indent(out, depth + 1);
    out << "SrcBlock " << quoted(line.source().block->name()) << '\n';
    indent(out, depth + 1);
    out << "SrcPort " << line.source().port << '\n';
    if (line.destinations().size() == 1) {
        const PortRef& dst = line.destinations().front();
        indent(out, depth + 1);
        out << "DstBlock " << quoted(dst.block->name()) << '\n';
        indent(out, depth + 1);
        out << "DstPort " << dst.port << '\n';
    } else {
        for (const PortRef& dst : line.destinations()) {
            indent(out, depth + 1);
            out << "Branch {\n";
            indent(out, depth + 2);
            out << "DstBlock " << quoted(dst.block->name()) << '\n';
            indent(out, depth + 2);
            out << "DstPort " << dst.port << '\n';
            indent(out, depth + 1);
            out << "}\n";
        }
    }
    indent(out, depth);
    out << "}\n";
}

void write_system(std::ostream& out, const System& system, int depth) {
    indent(out, depth);
    out << "System {\n";
    indent(out, depth + 1);
    out << "Name " << quoted(system.name()) << '\n';
    for (const Block* b : system.block_view()) write_block(out, *b, depth + 1);
    for (const Line* l : system.lines()) write_line(out, *l, depth + 1);
    indent(out, depth);
    out << "}\n";
}

}  // namespace

std::string write_mdl(const Model& model) {
    std::ostringstream out;
    out << "Model {\n";
    out << "  Name " << quoted(model.name()) << '\n';
    out << "  Solver " << quoted(model.solver) << '\n';
    out << "  StopTime " << quoted(std::to_string(model.stop_time)) << '\n';
    out << "  FixedStep " << quoted(std::to_string(model.fixed_step)) << '\n';
    write_system(out, model.root(), 1);
    out << "}\n";
    return out.str();
}

void save_mdl(const Model& model, const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open mdl file for writing: " + path);
    out << write_mdl(model);
    if (!out) throw std::runtime_error("failed writing mdl file: " + path);
}

}  // namespace uhcg::simulink
