#include "simulink/dot.hpp"

#include <map>
#include <sstream>

namespace uhcg::simulink {
namespace {

/// Graphviz node id for a block: unique across the hierarchy.
std::string node_id(const Block& b,
                    std::map<const Block*, std::string>& ids) {
    auto it = ids.find(&b);
    if (it != ids.end()) return it->second;
    std::string id = "n" + std::to_string(ids.size());
    ids.emplace(&b, id);
    return id;
}

std::string shape_of(const Block& b) {
    switch (b.type()) {
        case BlockType::Inport: return "rarrow";
        case BlockType::Outport: return "larrow";
        case BlockType::CommChannel: return "cds";
        case BlockType::UnitDelay: return "square";
        default: return "box";
    }
}

/// Edges cannot point at clusters in Graphviz; anchor subsystem endpoints
/// on their first inner block (valid CAAMs always have boundary ports).
std::string edge_anchor(const Block& b,
                        std::map<const Block*, std::string>& ids) {
    if (!b.is_subsystem()) return node_id(b, ids);
    const auto inner = b.system()->block_view();
    if (inner.empty()) return node_id(b, ids);  // degenerate: implicit node
    return edge_anchor(*inner.front(), ids);
}

void emit_system(std::ostringstream& out, const System& sys,
                 const DotOptions& options,
                 std::map<const Block*, std::string>& ids, int depth) {
    std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    for (const Block* b : sys.block_view()) {
        if (b->is_subsystem()) {
            out << pad << "subgraph cluster_" << node_id(*b, ids) << " {\n"
                << pad << "  label=\"" << b->name();
            if (b->role() != CaamRole::None)
                out << " <" << to_string(b->role()) << ">";
            out << "\";\n" << pad << "  style=rounded;\n";
            emit_system(out, *b->system(), options, ids, depth + 1);
            out << pad << "}\n";
        } else {
            out << pad << node_id(*b, ids) << " [shape=" << shape_of(*b)
                << " label=\"" << b->name();
            if (options.show_block_types && b->type() != BlockType::Inport &&
                b->type() != BlockType::Outport)
                out << "\\n[" << to_string(b->type()) << "]";
            out << "\"];\n";
        }
    }
    for (const Line* line : sys.lines()) {
        const Block* src = line->source().block;
        // Subsystem endpoints are clusters; anchor edges on a port proxy:
        // Graphviz cannot point at clusters directly, so draw from/to the
        // subsystem's first inner port block when available.
        for (const PortRef& dst : line->destinations()) {
            out << pad << edge_anchor(*src, ids) << " -> "
                << edge_anchor(*dst.block, ids);
            if (options.show_signal_names && !line->name().empty())
                out << " [label=\"" << line->name() << "\"]";
            out << ";\n";
        }
    }
}

}  // namespace

std::string to_dot(const Model& model, const DotOptions& options) {
    std::ostringstream out;
    std::map<const Block*, std::string> ids;
    out << "digraph \"" << model.name() << "\" {\n"
        << "  rankdir=LR;\n  compound=true;\n  node [fontsize=10];\n";
    emit_system(out, model.root(), options, ids, 1);
    out << "}\n";
    return out.str();
}

}  // namespace uhcg::simulink
