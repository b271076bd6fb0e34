#include "core/delays.hpp"

#include <map>
#include <optional>
#include <set>
#include <stdexcept>

namespace uhcg::core {

using simulink::Block;
using simulink::BlockType;
using simulink::Line;
using simulink::PortRef;
using simulink::System;

namespace {

/// One vertex of the dependency graph: a specific input or output port.
struct Atom {
    const Block* block = nullptr;
    int port = 1;
    bool is_output = false;

    friend auto operator<=>(const Atom&, const Atom&) = default;
};

/// An edge of the dependency graph: along a line (into the input port
/// `to`, where a UnitDelay can be spliced in) or within a block.
struct Dep {
    Atom to;
    bool line = false;

    PortRef line_dst() const { return {const_cast<Block*>(to.block), to.port}; }
};

class CycleAnalyzer {
public:
    /// Combinational in→out reachability of a subsystem block, memoized.
    const std::vector<std::vector<bool>>& subsystem_reach(const Block& sub) {
        auto it = reach_memo_.find(&sub);
        if (it != reach_memo_.end()) return it->second;
        const System& sys = *sub.system();
        std::vector<std::vector<bool>> table(
            static_cast<std::size_t>(sub.input_count()) + 1,
            std::vector<bool>(static_cast<std::size_t>(sub.output_count()) + 1,
                              false));
        // For each inner Inport (Port=i), DFS the atom graph; reached inner
        // Outport (Port=j) ⇒ in i → out j is combinational.
        for (const Block* b : sys.blocks()) {
            if (b->type() != BlockType::Inport) continue;
            int i = simulink::port_number(*b);
            if (i <= 0 || i > sub.input_count()) continue;
            std::set<Atom> visited;
            std::vector<Atom> stack{{b, 1, true}};
            while (!stack.empty()) {
                Atom a = stack.back();
                stack.pop_back();
                if (!visited.insert(a).second) continue;
                for (const Dep& d : dependencies(sys, a)) stack.push_back(d.to);
            }
            for (const Block* o : sys.blocks()) {
                if (o->type() != BlockType::Outport) continue;
                int j = simulink::port_number(*o);
                if (j <= 0 || j > sub.output_count()) continue;
                if (visited.count({o, 1, false}) != 0) table[i][j] = true;
            }
        }
        return reach_memo_.emplace(&sub, std::move(table)).first->second;
    }

    /// Outgoing dependency edges of an atom within its system.
    std::vector<Dep> dependencies(const System& sys, const Atom& atom) {
        std::vector<Dep> out;
        if (atom.is_output) {
            // Output port → every input it drives, via lines.
            if (const Line* line =
                    sys.line_from({const_cast<Block*>(atom.block), atom.port})) {
                for (const PortRef& dst : line->destinations())
                    out.push_back({{dst.block, dst.port, false}, true});
            }
            return out;
        }
        // Input port → block outputs it combinationally feeds.
        const Block& b = *atom.block;
        switch (b.type()) {
            case BlockType::UnitDelay:
            case BlockType::Inport:
            case BlockType::Outport:
            case BlockType::Scope:
                break;  // no combinational propagation
            case BlockType::SubSystem: {
                const auto& table = subsystem_reach(b);
                for (int j = 1; j <= b.output_count(); ++j)
                    if (table[static_cast<std::size_t>(atom.port)]
                             [static_cast<std::size_t>(j)])
                        out.push_back({{&b, j, true}});
                break;
            }
            default:
                // Product, Sum, Gain, S-Function, CommChannel, Constant:
                // every input feeds every output within the step.
                for (int j = 1; j <= b.output_count(); ++j)
                    out.push_back({{&b, j, true}});
                break;
        }
        return out;
    }

    /// Finds one combinational cycle in `sys`; returns the destination of
    /// a line on it to cut (the "data link where the loop is detected").
    /// nullopt = acyclic.
    std::optional<PortRef> find_cycle(const System& sys) {
        std::map<Atom, int> color;  // 0 white, 1 gray, 2 black
        std::vector<std::pair<Atom, Dep>> path;  // (atom, edge taken into it)

        std::optional<PortRef> result;
        auto dfs = [&](auto&& self, const Atom& a) -> bool {
            color[a] = 1;
            for (const Dep& d : dependencies(sys, a)) {
                int c = color[d.to];
                if (c == 1) {
                    // Back edge: the cycle is d plus the path suffix from
                    // d.to. Cut at the back edge when it is a line,
                    // otherwise at the last line edge on the suffix.
                    if (d.line) {
                        result = d.line_dst();
                        return true;
                    }
                    for (auto it = path.rbegin(); it != path.rend(); ++it) {
                        // The entry *for* d.to records the edge that led
                        // into the cycle head — not a cycle edge; stop
                        // before considering it.
                        if (it->first == d.to) break;
                        if (it->second.line) {
                            result = it->second.line_dst();
                            return true;
                        }
                    }
                    throw std::logic_error(
                        "combinational cycle without any line edge");
                }
                if (c == 0) {
                    path.emplace_back(d.to, d);
                    if (self(self, d.to)) return true;
                    path.pop_back();
                }
            }
            color[a] = 2;
            return false;
        };

        for (const Block* b : sys.blocks()) {
            for (int p = 1; p <= b->output_count(); ++p) {
                Atom a{b, p, true};
                if (color[a] == 0) {
                    path.clear();
                    if (dfs(dfs, a)) return result;
                }
            }
        }
        return std::nullopt;
    }

    void invalidate() { reach_memo_.clear(); }

private:
    std::map<const Block*, std::vector<std::vector<bool>>> reach_memo_;
};

/// Breaks all cycles in one system (children must already be processed).
void break_cycles(System& sys, CycleAnalyzer& analyzer, DelayReport& report) {
    for (;;) {
        std::optional<PortRef> dst = analyzer.find_cycle(sys);
        if (!dst) return;
        auto [src, signal] = sys.disconnect(*dst);
        Block& delay =
            sys.add_block(sys.unique_name("Delay"), BlockType::UnitDelay);
        delay.set_parameter("SampleTime", "-1");
        sys.add_line(src, {&delay, 1}, signal);
        sys.add_line({&delay, 1}, *dst, signal);

        ++report.inserted;
        report.locations.push_back(sys.name() + ": " + src.block->name() + "." +
                                   std::to_string(src.port) + " -> " +
                                   dst->block->name() + "." +
                                   std::to_string(dst->port));
    }
}

void process_bottom_up(System& sys, CycleAnalyzer& analyzer, DelayReport& report) {
    for (Block* b : sys.blocks())
        if (b->system()) process_bottom_up(*b->system(), analyzer, report);
    break_cycles(sys, analyzer, report);
}

bool any_cycle(const System& sys, CycleAnalyzer& analyzer) {
    for (const Block* b : sys.blocks())
        if (b->system() && any_cycle(*b->system(), analyzer)) return true;
    return analyzer.find_cycle(sys).has_value();
}

}  // namespace

DelayReport insert_temporal_barriers(simulink::Model& model) {
    DelayReport report;
    CycleAnalyzer analyzer;
    process_bottom_up(model.root(), analyzer, report);
    return report;
}

bool has_combinational_cycle(const simulink::Model& model) {
    CycleAnalyzer analyzer;
    return any_cycle(model.root(), analyzer);
}

}  // namespace uhcg::core
