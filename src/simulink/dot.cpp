#include "simulink/dot.hpp"

#include <charconv>
#include <unordered_map>

namespace uhcg::simulink {
namespace {

std::string_view shape_of(const Block& b) {
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
const Block& edge_anchor(const Block& b) {
    if (!b.is_subsystem()) return b;
    const auto inner = b.system()->block_view();
    if (inner.empty()) return b;  // degenerate: implicit node
    return edge_anchor(*inner.front());
}

/// Appends the whole graph into one buffer.
class DotWriter {
public:
    DotWriter(const DotOptions& options, std::size_t blocks) : options_(options) {
        ids_.reserve(blocks);
    }

    std::string take() { return std::move(out_); }
    void text(std::string_view s) { out_ += s; }

    void system(const System& sys, int depth) {
        const std::size_t pad = static_cast<std::size_t>(depth) * 2;
        for (const Block* b : sys.block_view()) {
            out_.append(pad, ' ');
            if (b->is_subsystem()) {
                out_ += "subgraph cluster_";
                node_id(*b);
                out_ += " {\n";
                out_.append(pad, ' ');
                out_ += "  label=\"";
                out_ += b->name();
                if (b->role() != CaamRole::None) {
                    out_ += " <";
                    out_ += to_string(b->role());
                    out_ += '>';
                }
                out_ += "\";\n";
                out_.append(pad, ' ');
                out_ += "  style=rounded;\n";
                system(*b->system(), depth + 1);
                out_.append(pad, ' ');
                out_ += "}\n";
            } else {
                node_id(*b);
                out_ += " [shape=";
                out_ += shape_of(*b);
                out_ += " label=\"";
                out_ += b->name();
                if (options_.show_block_types && b->type() != BlockType::Inport &&
                    b->type() != BlockType::Outport) {
                    out_ += "\\n[";
                    out_ += to_string(b->type());
                    out_ += ']';
                }
                out_ += "\"];\n";
            }
        }
        for (const Line* line : sys.line_view()) {
            const Block& src = edge_anchor(*line->source().block);
            for (const PortRef& dst : line->destinations()) {
                out_.append(pad, ' ');
                node_id(src);
                out_ += " -> ";
                node_id(edge_anchor(*dst.block));
                if (options_.show_signal_names && !line->name().empty()) {
                    out_ += " [label=\"";
                    out_ += line->name();
                    out_ += "\"]";
                }
                out_ += ";\n";
            }
        }
    }

private:
    /// Appends the Graphviz node id of `b`: "n<k>", k dense in first-use
    /// order, unique across the hierarchy.
    void node_id(const Block& b) {
        const auto [it, fresh] = ids_.try_emplace(&b, ids_.size());
        out_ += 'n';
        char buf[24];
        out_.append(buf, std::to_chars(buf, buf + sizeof buf, it->second).ptr);
    }

    const DotOptions& options_;
    std::string out_;
    std::unordered_map<const Block*, std::size_t> ids_;
};

}  // namespace

std::string to_dot(const Model& model, const DotOptions& options) {
    DotWriter w(options, model.root().total_blocks());
    w.text("digraph \"");
    w.text(model.name());
    w.text("\" {\n  rankdir=LR;\n  compound=true;\n  node [fontsize=10];\n");
    w.system(model.root(), 1);
    w.text("}\n");
    return w.take();
}

}  // namespace uhcg::simulink
