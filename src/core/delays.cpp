#include "core/delays.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.hpp"

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

    friend bool operator==(const Atom&, const Atom&) = default;
};

/// An edge of the dependency graph: along a line (into the input port
/// `to`, where a UnitDelay can be spliced in) or within a block.
struct Dep {
    Atom to;
    bool line = false;

    PortRef line_dst() const { return {const_cast<Block*>(to.block), to.port}; }
};

/// Dense ids for the atoms of one system: each block's inputs, then its
/// outputs, blocks in system order.
class AtomIds {
public:
    explicit AtomIds(const System& sys) {
        for (const Block* b : sys.blocks()) {
            base_.emplace(b, size_);
            size_ += static_cast<std::size_t>(b->input_count() + b->output_count());
        }
    }

    std::size_t size() const { return size_; }

    std::size_t operator()(const Atom& a) const {
        const int offset = a.port - 1 + (a.is_output ? a.block->input_count() : 0);
        return base_.at(a.block) + static_cast<std::size_t>(offset);
    }

private:
    std::unordered_map<const Block*, std::size_t> base_;
    std::size_t size_ = 0;
};

/// Adds one pass's visited atoms to `caam.delays.atoms`.
void count_atoms(std::size_t visited) {
    static obs::Counter& atoms = obs::counter("caam.delays.atoms");
    atoms.add(visited);
}

class CycleAnalyzer {
public:
    /// Combinational in→out reachability of a subsystem block, memoized.
    ///
    /// One Tarjan SCC pass over the inner atoms reachable from the inner
    /// Inports. Each SCC gets the set of inner Outports it reaches; Tarjan
    /// completes an SCC after every SCC it reaches, so the sets it merges
    /// are final. A combinational cycle inside collapses into one SCC and
    /// the table stays exact.
    const SubsystemReach& subsystem_reach(const Block& sub) {
        auto memo = reach_memo_.find(&sub);
        if (memo != reach_memo_.end()) return memo->second;
        const System& sys = *sub.system();
        const AtomIds ids(sys);

        // Bit k of a set: the k-th inner Outport block is reached.
        std::unordered_map<const Block*, std::size_t> outport_bit;
        for (const Block* b : sys.blocks())
            if (b->type() == BlockType::Outport)
                outport_bit.emplace(b, outport_bit.size());
        const std::size_t words = outport_bit.size() / 64 + 1;

        constexpr std::size_t kNone = SIZE_MAX;
        std::vector<std::size_t> order(ids.size(), kNone);  // preorder number
        std::vector<std::size_t> low(ids.size());
        std::vector<std::size_t> scc(ids.size(), kNone);
        std::vector<std::uint64_t> reached;  // `words` per completed SCC
        std::vector<std::size_t> open;       // atoms of not yet completed SCCs
        std::vector<std::size_t> crossed;    // completed SCCs they reach
        struct Frame {
            Atom atom;
            std::size_t id, edges_base, crossed_base;
        };
        std::vector<Frame> frames;
        std::vector<Dep> edges;  // unexplored edges, the top frame's last
        std::size_t visited = 0;

        auto enter = [&](const Atom& a, std::size_t id) {
            order[id] = low[id] = visited++;
            open.push_back(id);
            frames.push_back({a, id, edges.size(), crossed.size()});
            dependencies(sys, a, edges);
        };
        // Pops the SCC rooted at `f` and returns its number. Only an
        // Outport's input sets a bit; it has no dependencies, so it is
        // always the root of its own SCC.
        auto complete = [&](const Frame& f) {
            const std::size_t n = reached.size() / words;
            reached.resize(reached.size() + words);
            std::uint64_t* set = reached.data() + n * words;
            for (std::size_t i = f.crossed_base; i < crossed.size(); ++i)
                for (std::size_t w = 0; w < words; ++w)
                    set[w] |= reached[crossed[i] * words + w];
            crossed.resize(f.crossed_base);
            if (f.atom.block->type() == BlockType::Outport && !f.atom.is_output) {
                const std::size_t k = outport_bit.at(f.atom.block);
                set[k / 64] |= std::uint64_t{1} << (k % 64);
            }
            std::size_t member;
            do {
                member = open.back();
                open.pop_back();
                scc[member] = n;
            } while (member != f.id);
            return n;
        };
        // Edges are taken from the top: an atom's last dependency first.
        auto run = [&](const Atom& root) {
            enter(root, ids(root));
            while (!frames.empty()) {
                Frame& f = frames.back();
                if (edges.size() > f.edges_base) {
                    const Atom to = edges.back().to;
                    edges.pop_back();
                    const std::size_t w = ids(to);
                    if (order[w] == kNone)
                        enter(to, w);
                    else if (scc[w] == kNone)
                        low[f.id] = std::min(low[f.id], order[w]);
                    else
                        crossed.push_back(scc[w]);
                    continue;
                }
                const Frame done = f;
                frames.pop_back();
                if (low[done.id] == order[done.id]) {
                    const std::size_t n = complete(done);
                    if (!frames.empty()) crossed.push_back(n);
                } else {
                    low[frames.back().id] =
                        std::min(low[frames.back().id], low[done.id]);
                }
            }
        };

        // Port numbers are read (and a bad one reported) in block order:
        // each Inport's, and every Outport's after the first valid Inport's
        // pass.
        std::vector<std::pair<int, std::size_t>> inports;  // (port, atom id)
        std::vector<int> outport_port;  // per bit; 0 when out of range
        for (const Block* b : sys.blocks()) {
            if (b->type() != BlockType::Inport) continue;
            const int i = simulink::port_number(*b);
            if (i <= 0 || i > sub.input_count()) continue;
            if (b->output_count() >= 1) {
                const Atom root{b, 1, true};
                if (order[ids(root)] == kNone) run(root);
                inports.emplace_back(i, ids(root));
            }
            if (!outport_port.empty() || outport_bit.empty()) continue;
            for (const Block* o : sys.blocks()) {
                if (o->type() != BlockType::Outport) continue;
                const int j = simulink::port_number(*o);
                outport_port.push_back(j > 0 && j <= sub.output_count() ? j : 0);
            }
        }

        SubsystemReach table(static_cast<std::size_t>(sub.input_count()) + 1);
        for (const auto& [i, id] : inports) {
            const std::uint64_t* set = reached.data() + scc[id] * words;
            std::vector<int>& row = table[static_cast<std::size_t>(i)];
            for (std::size_t w = 0; w < words; ++w)
                for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
                    const std::size_t k =
                        w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                    if (outport_port[k] != 0) row.push_back(outport_port[k]);
                }
        }
        for (std::vector<int>& row : table) {
            std::sort(row.begin(), row.end());
            row.erase(std::unique(row.begin(), row.end()), row.end());
        }
        count_atoms(visited);
        return reach_memo_.emplace(&sub, std::move(table)).first->second;
    }

    /// Appends the outgoing dependency edges of an atom within its system.
    void dependencies(const System& sys, const Atom& atom, std::vector<Dep>& out) {
        if (atom.is_output) {
            // Output port → every input it drives, via lines.
            if (const Line* line =
                    sys.line_from({const_cast<Block*>(atom.block), atom.port})) {
                for (const PortRef& dst : line->destinations())
                    out.push_back({{dst.block, dst.port, false}, true});
            }
            return;
        }
        // Input port → block outputs it combinationally feeds.
        const Block& b = *atom.block;
        switch (b.type()) {
            case BlockType::UnitDelay:
            case BlockType::Inport:
            case BlockType::Outport:
            case BlockType::Scope:
                break;  // no combinational propagation
            case BlockType::SubSystem:
                for (int j : subsystem_reach(b)[static_cast<std::size_t>(atom.port)])
                    out.push_back({{&b, j, true}});
                break;
            default:
                // Product, Sum, Gain, S-Function, CommChannel, Constant:
                // every input feeds every output within the step.
                for (int j = 1; j <= b.output_count(); ++j)
                    out.push_back({{&b, j, true}});
                break;
        }
    }

    /// Finds one combinational cycle in `sys`; returns the destination of
    /// a line on it to cut (the "data link where the loop is detected").
    /// nullopt = acyclic.
    std::optional<PortRef> find_cycle(const System& sys) {
        const AtomIds ids(sys);
        std::vector<std::uint8_t> color(ids.size(), 0);  // 0 white, 1 gray, 2 black
        struct Frame {
            Atom atom;
            Dep into;  // the edge taken into the atom
            std::size_t edges_base, next;
        };
        std::vector<Frame> path;
        std::vector<Dep> edges;  // each frame's dependencies, the top frame's last
        std::size_t visited = 0;

        auto enter = [&](const Atom& a, const Dep& into) {
            color[ids(a)] = 1;
            ++visited;
            const std::size_t base = edges.size();
            dependencies(sys, a, edges);
            path.push_back({a, into, base, base});
        };
        // Back edge `d`: the cycle is d plus the path suffix from d.to. Cut
        // at the back edge when it is a line, otherwise at the last line
        // edge on the suffix.
        auto cut = [&](const Dep& d) {
            if (d.line) return d.line_dst();
            for (auto it = path.rbegin(); it != path.rend(); ++it) {
                // The frame *for* d.to records the edge that led into the
                // cycle head — not a cycle edge; stop before considering it.
                if (it->atom == d.to) break;
                if (it->into.line) return it->into.line_dst();
            }
            throw std::logic_error("combinational cycle without any line edge");
        };

        for (const Block* b : sys.blocks()) {
            for (int p = 1; p <= b->output_count(); ++p) {
                const Atom root{b, p, true};
                if (color[ids(root)] != 0) continue;
                enter(root, Dep{});
                while (!path.empty()) {
                    Frame& f = path.back();
                    if (f.next == edges.size()) {
                        color[ids(f.atom)] = 2;
                        edges.resize(f.edges_base);
                        path.pop_back();
                        continue;
                    }
                    const Dep d = edges[f.next++];
                    const std::uint8_t c = color[ids(d.to)];
                    if (c == 1) {
                        const PortRef dst = cut(d);
                        count_atoms(visited);
                        return dst;
                    }
                    if (c == 0) enter(d.to, d);
                }
            }
        }
        count_atoms(visited);
        return std::nullopt;
    }

private:
    std::map<const Block*, SubsystemReach> reach_memo_;
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

SubsystemReach combinational_reach(const simulink::Block& subsystem) {
    CycleAnalyzer analyzer;
    return analyzer.subsystem_reach(subsystem);
}

}  // namespace uhcg::core
