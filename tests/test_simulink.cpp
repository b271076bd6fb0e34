// Tests for the Simulink CAAM metamodel, block library, mdl writer/parser
// and structural validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "campaign/corpus.hpp"
#include "cases/cases.hpp"
#include "core/delays.hpp"
#include "core/pipeline.hpp"
#include "simulink/caam.hpp"
#include "simulink/dot.hpp"
#include "simulink/generic.hpp"
#include "simulink/library.hpp"
#include "simulink/mdl.hpp"
#include "simulink/model.hpp"

namespace {

using namespace uhcg::simulink;

TEST(SimulinkModel, BlockDefaultsPerType) {
    Model m("m");
    EXPECT_EQ(m.root().add_block("p", BlockType::Product).input_count(), 2);
    EXPECT_EQ(m.root().add_block("g", BlockType::Gain).input_count(), 1);
    EXPECT_EQ(m.root().add_block("c", BlockType::Constant).output_count(), 1);
    EXPECT_EQ(m.root().add_block("i", BlockType::Inport).output_count(), 1);
    EXPECT_EQ(m.root().add_block("o", BlockType::Outport).input_count(), 1);
    Block& sub = m.root().add_block("s", BlockType::SubSystem);
    ASSERT_NE(sub.system(), nullptr);
    EXPECT_EQ(sub.system()->name(), "s");
}

TEST(SimulinkModel, DuplicateBlockNameRejected) {
    Model m("m");
    m.root().add_block("x", BlockType::Gain);
    EXPECT_THROW(m.root().add_block("x", BlockType::Gain), std::invalid_argument);
}

TEST(SimulinkModel, Parameters) {
    Model m("m");
    Block& g = m.root().add_block("g", BlockType::Gain);
    g.set_parameter("Gain", "2.5");
    EXPECT_EQ(g.parameter_or("Gain", ""), "2.5");
    EXPECT_EQ(g.parameter_or("Missing", "d"), "d");
    g.set_parameter("Gain", "3");
    EXPECT_EQ(*g.find_parameter("Gain"), "3");
}

TEST(SimulinkModel, PortNamesAndLookup) {
    Model m("m");
    Block& b = m.root().add_block("b", BlockType::SFunction);
    b.set_ports(2, 1);
    b.set_input_name(1, "a");
    b.set_input_name(2, "b");
    b.set_output_name(1, "r");
    EXPECT_EQ(b.input_named("b"), 2);
    EXPECT_EQ(b.input_named("zzz"), 0);
    EXPECT_EQ(b.output_named("r"), 1);
    EXPECT_EQ(b.input_name(1), "a");
    EXPECT_THROW(b.set_input_name(3, "x"), std::out_of_range);
}

TEST(SimulinkModel, LinesBranchesAndLookups) {
    Model m("m");
    Block& c = m.root().add_block("c", BlockType::Constant);
    Block& g1 = m.root().add_block("g1", BlockType::Gain);
    Block& g2 = m.root().add_block("g2", BlockType::Gain);
    Line& l1 = m.root().add_line({&c, 1}, {&g1, 1}, "sig");
    Line& l2 = m.root().add_line({&c, 1}, {&g2, 1});
    EXPECT_EQ(&l1, &l2);  // same source → branch, not a second line
    EXPECT_EQ(l1.destinations().size(), 2u);
    EXPECT_EQ(l1.name(), "sig");
    EXPECT_EQ(m.root().line_from({&c, 1}), &l1);
    EXPECT_EQ(m.root().line_into({&g2, 1}), &l1);
    EXPECT_EQ(m.root().lines().size(), 1u);
}

TEST(SimulinkModel, LineValidation) {
    Model m("m");
    Block& c = m.root().add_block("c", BlockType::Constant);
    Block& g = m.root().add_block("g", BlockType::Gain);
    EXPECT_THROW(m.root().add_line({&c, 2}, {&g, 1}), std::invalid_argument);
    EXPECT_THROW(m.root().add_line({&c, 1}, {&g, 5}), std::invalid_argument);
    m.root().add_line({&c, 1}, {&g, 1});
    // Driving an already-driven input is rejected.
    Block& c2 = m.root().add_block("c2", BlockType::Constant);
    EXPECT_THROW(m.root().add_line({&c2, 1}, {&g, 1}), std::invalid_argument);
}

TEST(SimulinkModel, RemoveBlockCleansLines) {
    Model m("m");
    Block& c = m.root().add_block("c", BlockType::Constant);
    Block& g1 = m.root().add_block("g1", BlockType::Gain);
    Block& g2 = m.root().add_block("g2", BlockType::Gain);
    m.root().add_line({&c, 1}, {&g1, 1});
    m.root().add_line({&c, 1}, {&g2, 1});
    m.root().remove_block(g1);
    ASSERT_EQ(m.root().lines().size(), 1u);
    EXPECT_EQ(m.root().lines()[0]->destinations().size(), 1u);
    m.root().remove_block(g2);
    EXPECT_TRUE(m.root().lines().empty());  // lost its last destination
}

TEST(SimulinkModel, DisconnectDetachesOneDestination) {
    Model m("m");
    Block& c = m.root().add_block("c", BlockType::Constant);
    Block& g1 = m.root().add_block("g1", BlockType::Gain);
    Block& g2 = m.root().add_block("g2", BlockType::Gain);
    m.root().add_line({&c, 1}, {&g1, 1}, "sig");
    m.root().add_line({&c, 1}, {&g2, 1});
    auto [src, signal] = m.root().disconnect({&g1, 1});
    EXPECT_EQ(src, (PortRef{&c, 1}));
    EXPECT_EQ(signal, "sig");
    EXPECT_EQ(m.root().line_into({&g1, 1}), nullptr);
    ASSERT_EQ(m.root().lines().size(), 1u);  // the g2 branch stays
    m.root().disconnect({&g2, 1});
    EXPECT_TRUE(m.root().lines().empty());  // lost its last destination
    EXPECT_THROW(m.root().disconnect({&g2, 1}), std::invalid_argument);
}

TEST(SimulinkModel, LineLookupsAnswerOnlyForThisSystemsPorts) {
    Model m("m");
    Block& sub = m.root().add_subsystem("sub");
    Block& c = m.root().add_block("c", BlockType::Constant);
    Block& g = m.root().add_block("g", BlockType::Gain);
    Block& inner_c = sub.system()->add_block("c", BlockType::Constant);
    Block& inner_g = sub.system()->add_block("g", BlockType::Gain);
    Line& outer = m.root().add_line({&c, 1}, {&g, 1});
    Line& inner = sub.system()->add_line({&inner_c, 1}, {&inner_g, 1});
    EXPECT_EQ(m.root().line_from({&c, 1}), &outer);
    EXPECT_EQ(sub.system()->line_from({&inner_c, 1}), &inner);
    // A block of another system, a port below 1 and a port past any slot.
    EXPECT_EQ(m.root().line_from({&inner_c, 1}), nullptr);
    EXPECT_EQ(m.root().line_into({&inner_g, 1}), nullptr);
    EXPECT_EQ(sub.system()->line_into({&g, 1}), nullptr);
    EXPECT_EQ(m.root().line_from({&c, 0}), nullptr);
    EXPECT_EQ(m.root().line_into({&g, -1}), nullptr);
    EXPECT_EQ(m.root().line_from({&c, 2}), nullptr);
    EXPECT_EQ(m.root().line_into({&g, 9}), nullptr);
    EXPECT_EQ(m.root().line_into({nullptr, 1}), nullptr);
}

TEST(SimulinkModel, RemovedAndDisconnectedPortsTakeANewLine) {
    Model m("m");
    Block& c = m.root().add_block("c", BlockType::Constant);
    Block& c2 = m.root().add_block("c2", BlockType::Constant);
    Block& g = m.root().add_block("g", BlockType::Gain);
    Block& g2 = m.root().add_block("g2", BlockType::Gain);
    m.root().add_line({&c, 1}, {&g, 1});
    m.root().add_line({&c2, 1}, {&g2, 1});
    m.root().remove_block(c);  // frees g's input
    EXPECT_EQ(m.root().line_into({&g, 1}), nullptr);
    Line& fed = m.root().add_line({&c2, 1}, {&g, 1});
    EXPECT_EQ(m.root().line_into({&g, 1}), &fed);
    m.root().disconnect({&g2, 1});  // frees g2's input, c2 still drives g
    EXPECT_EQ(m.root().line_from({&c2, 1}), &fed);
    Block& c3 = m.root().add_block("c3", BlockType::Constant);
    Line& again = m.root().add_line({&c3, 1}, {&g2, 1});
    EXPECT_EQ(m.root().line_into({&g2, 1}), &again);
    m.root().disconnect({&g, 1});  // c2's line loses its last destination
    EXPECT_EQ(m.root().line_from({&c2, 1}), nullptr);
    Line& fresh = m.root().add_line({&c2, 1}, {&g, 1}, "fresh");
    EXPECT_EQ(m.root().line_from({&c2, 1}), &fresh);
    EXPECT_EQ(fresh.name(), "fresh");
    EXPECT_EQ(m.root().lines().size(), 2u);
}

TEST(SimulinkModel, SetPortsShrinkThenGrowKeepsWiredPorts) {
    Model m("m");
    Block& src = m.root().add_block("src", BlockType::SFunction);
    Block& dst = m.root().add_block("dst", BlockType::SFunction);
    src.set_ports(0, 2);
    dst.set_ports(3, 0);
    Line& wired = m.root().add_line({&src, 2}, {&dst, 3});
    dst.set_ports(1, 0);
    src.set_ports(0, 1);
    // A shrink changes the counts only: the line and its lookups stay.
    EXPECT_EQ(m.root().line_into({&dst, 3}), &wired);
    EXPECT_EQ(m.root().line_from({&src, 2}), &wired);
    EXPECT_THROW(m.root().add_line({&src, 1}, {&dst, 3}), std::invalid_argument);
    dst.set_ports(5, 0);
    src.set_ports(0, 3);
    EXPECT_EQ(m.root().line_into({&dst, 3}), &wired);
    EXPECT_THROW(m.root().add_line({&src, 1}, {&dst, 3}), std::invalid_argument);
    Line& added = m.root().add_line({&src, 3}, {&dst, 5});
    EXPECT_EQ(m.root().line_into({&dst, 5}), &added);
    EXPECT_EQ(m.root().line_from({&src, 3}), &added);
    EXPECT_EQ(m.root().line_into({&dst, 4}), nullptr);
}

TEST(SimulinkModel, ParametersIterateByKeyAndOverwriteInPlace) {
    Model m("m");
    Block& b = m.root().add_block("b", BlockType::SFunction);
    for (const char* key : {"Value", "Gain", "Protocol", "FunctionName", "A"})
        b.set_parameter(key, std::string("v_") + key);
    b.set_parameter("Gain", "2");
    using Entry = std::pair<std::string, std::string>;
    EXPECT_EQ(b.parameters(),
              (std::vector<Entry>{{"A", "v_A"},
                                  {"FunctionName", "v_FunctionName"},
                                  {"Gain", "2"},
                                  {"Protocol", "v_Protocol"},
                                  {"Value", "v_Value"}}));
    EXPECT_EQ(*b.find_parameter("Gain"), "2");
    EXPECT_EQ(b.find_parameter("Gai"), nullptr);
    EXPECT_EQ(b.find_parameter("Gainz"), nullptr);
}

TEST(SimulinkModel, UniqueNameProbesNumberedSuffixes) {
    Model m("m");
    EXPECT_EQ(m.root().unique_name("Delay"), "Delay");
    m.root().add_block("Delay", BlockType::UnitDelay);
    EXPECT_EQ(m.root().unique_name("Delay"), "Delay_1");
    m.root().add_block("Delay_1", BlockType::UnitDelay);
    m.root().add_block("Delay_3", BlockType::UnitDelay);
    EXPECT_EQ(m.root().unique_name("Delay"), "Delay_2");
}

TEST(SimulinkModel, PortNumberDefaultsToOneAndNamesTheBlockPath) {
    Model m("m");
    Block& sub = m.root().add_subsystem("S");
    Block& in = sub.system()->add_block("in", BlockType::Inport);
    EXPECT_EQ(port_number(in), 1);
    in.set_parameter("Port", "3");
    EXPECT_EQ(port_number(in), 3);
    EXPECT_EQ(full_path(in), "S/in");
    for (const char* bad : {"x", "2x", ""}) {
        in.set_parameter("Port", bad);
        try {
            port_number(in);
            ADD_FAILURE() << "no error for Port '" << bad << "'";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), "block 'S/in' has a non-numeric "
                                             "Port (got '" + std::string(bad) +
                                                 "')");
        }
    }
}

TEST(SimulinkModel, DeepCounts) {
    Model m("m");
    Block& sub = m.root().add_subsystem("s");
    sub.system()->add_block("inner", BlockType::Gain);
    m.root().add_block("outer", BlockType::Gain);
    EXPECT_EQ(m.root().total_blocks(), 3u);
}

TEST(SimulinkModel, MoveKeepsTreeUsable) {
    Model m("m");
    Block& sub = m.root().add_subsystem("s");
    sub.system()->add_block("inner", BlockType::Gain);
    Model moved = std::move(m);
    // The moved model can still create blocks/lines anywhere in the tree.
    Block* s = moved.root().find_block("s");
    ASSERT_NE(s, nullptr);
    Block& c = s->system()->add_block("c", BlockType::Constant);
    s->system()->add_line({&c, 1}, {s->system()->find_block("inner"), 1});
    EXPECT_EQ(moved.root().total_lines(), 1u);
}

// --- index vs brute force ----------------------------------------------------

const Block* scan_block(const System& sys, std::string_view name) {
    for (const Block* b : sys.blocks())
        if (b->name() == name) return b;
    return nullptr;
}

const Line* scan_from(const System& sys, const PortRef& src) {
    for (const Line* l : sys.lines())
        if (l->source() == src) return l;
    return nullptr;
}

const Line* scan_into(const System& sys, const PortRef& dst) {
    for (const Line* l : sys.lines())
        for (const PortRef& d : l->destinations())
            if (d == dst) return l;
    return nullptr;
}

TEST(SimulinkModel, IndexedLookupsMatchALinearScanAfterEveryEdit) {
    Model m("m");
    System& sys = m.root();
    std::mt19937 rng(20081);
    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % static_cast<unsigned>(n));
    };
    auto any_port = [&](int count) {
        return 1 + static_cast<int>(pick(static_cast<std::size_t>(count)));
    };
    auto name_of = [](std::size_t i) { return "b" + std::to_string(i); };
    constexpr std::size_t kNames = 24;
    std::size_t adds = 0, branches = 0, disconnects = 0, removals = 0;
    for (int step = 0; step < 3000; ++step) {
        std::vector<Block*> blocks = sys.blocks();
        switch (pick(blocks.size() < 4 ? 1 : 8)) {
            case 0: {  // add_block
                const std::string name = name_of(pick(kNames));
                if (scan_block(sys, name)) {
                    EXPECT_THROW(sys.add_block(name, BlockType::Gain),
                                 std::invalid_argument);
                } else {
                    Block& b = sys.add_block(name, BlockType::Sum);
                    const int ins = 1 + static_cast<int>(pick(3));
                    b.set_ports(ins, 1 + static_cast<int>(pick(3)));
                    ++adds;
                }
                break;
            }
            case 1:
            case 2:
            case 3: {  // add_line, branching when the source is wired
                Block* s = blocks[pick(blocks.size())];
                Block* d = blocks[pick(blocks.size())];
                const PortRef src{s, any_port(s->output_count())};
                const PortRef dst{d, any_port(d->input_count())};
                if (scan_into(sys, dst)) {
                    EXPECT_THROW(sys.add_line(src, dst), std::invalid_argument);
                } else {
                    branches += scan_from(sys, src) ? 1 : 0;
                    Line& line = sys.add_line(src, dst, "s" + std::to_string(step));
                    EXPECT_EQ(line.source(), src);
                }
                break;
            }
            case 4:
            case 5: {  // disconnect
                Block* d = blocks[pick(blocks.size())];
                const PortRef dst{d, any_port(d->input_count())};
                if (scan_into(sys, dst)) {
                    sys.disconnect(dst);
                    ++disconnects;
                } else {
                    EXPECT_THROW(sys.disconnect(dst), std::invalid_argument);
                }
                break;
            }
            case 6: {  // remove_line
                std::vector<Line*> lines = sys.lines();
                if (!lines.empty()) sys.remove_line(*lines[pick(lines.size())]);
                break;
            }
            default:  // remove_block
                sys.remove_block(*blocks[pick(blocks.size())]);
                ++removals;
                break;
        }
        for (std::size_t i = 0; i < kNames; ++i)
            ASSERT_EQ(sys.find_block(name_of(i)), scan_block(sys, name_of(i)))
                << "step " << step;
        for (Block* b : sys.blocks()) {
            for (int p = 1; p <= b->output_count(); ++p)
                ASSERT_EQ(sys.line_from({b, p}), scan_from(sys, {b, p}))
                    << "step " << step;
            for (int p = 1; p <= b->input_count(); ++p)
                ASSERT_EQ(sys.line_into({b, p}), scan_into(sys, {b, p}))
                    << "step " << step;
        }
    }
    // The walk exercised every kind of edit.
    EXPECT_GT(adds, 100u);
    EXPECT_GT(branches, 50u);
    EXPECT_GT(disconnects, 50u);
    EXPECT_GT(removals, 100u);
}

TEST(SimulinkModel, UniqueNameReturnsTheSuffixARemovalFreed) {
    Model m("m");
    System& sys = m.root();
    for (const char* n : {"Delay", "Delay_1", "Delay_2"})
        sys.add_block(n, BlockType::UnitDelay);
    EXPECT_EQ(sys.unique_name("Delay"), "Delay_3");
    EXPECT_EQ(sys.unique_name("Delay"), "Delay_3");  // not taken yet
    sys.add_block(sys.unique_name("Delay"), BlockType::UnitDelay);
    sys.remove_block(*sys.find_block("Delay_1"));
    EXPECT_EQ(sys.unique_name("Delay"), "Delay_1");
    sys.add_block("Delay_1", BlockType::UnitDelay);
    EXPECT_EQ(sys.unique_name("Delay"), "Delay_4");
    sys.remove_block(*sys.find_block("Delay"));
    EXPECT_EQ(sys.unique_name("Delay"), "Delay");
}

TEST(SimulinkModel, PortNamesResolveToTheLowestPort) {
    Model m("m");
    Block& b = m.root().add_block("f", BlockType::SFunction);
    b.set_ports(3, 2);
    b.set_input_name(3, "x");
    b.set_input_name(1, "x");
    b.set_input_name(2, "y");
    EXPECT_EQ(b.input_named("x"), 1);
    EXPECT_EQ(b.input_named("y"), 2);
    b.set_input_name(1, "z");  // rename: port 3 still carries "x"
    EXPECT_EQ(b.input_named("x"), 3);
    EXPECT_EQ(b.input_named("z"), 1);
    b.set_output_name(2, "x");
    EXPECT_EQ(b.output_named("x"), 2);
    EXPECT_EQ(b.output_named("y"), 0);
}

// --- subsystem reachability vs a per-Inport DFS ------------------------------

struct OracleAtom {
    const Block* block;
    int port;
    bool is_output;

    friend auto operator<=>(const OracleAtom&, const OracleAtom&) = default;
};

uhcg::core::SubsystemReach oracle_reach(const Block& sub);

std::vector<OracleAtom> oracle_next(const System& sys, const OracleAtom& a) {
    std::vector<OracleAtom> out;
    if (a.is_output) {
        for (const Line* l : sys.lines())
            if (l->source() == PortRef{const_cast<Block*>(a.block), a.port})
                for (const PortRef& d : l->destinations())
                    out.push_back({d.block, d.port, false});
        return out;
    }
    switch (a.block->type()) {
        case BlockType::UnitDelay:
        case BlockType::Inport:
        case BlockType::Outport:
        case BlockType::Scope:
            break;
        case BlockType::SubSystem: {
            const uhcg::core::SubsystemReach table = oracle_reach(*a.block);
            for (int j : table[static_cast<std::size_t>(a.port)])
                out.push_back({a.block, j, true});
            break;
        }
        default:
            for (int j = 1; j <= a.block->output_count(); ++j)
                out.push_back({a.block, j, true});
    }
    return out;
}

std::set<OracleAtom> oracle_closure(const System& sys,
                                    std::vector<OracleAtom> stack) {
    std::set<OracleAtom> seen;
    while (!stack.empty()) {
        OracleAtom a = stack.back();
        stack.pop_back();
        if (!seen.insert(a).second) continue;
        for (const OracleAtom& n : oracle_next(sys, a)) stack.push_back(n);
    }
    return seen;
}

uhcg::core::SubsystemReach oracle_reach(const Block& sub) {
    const System& sys = *sub.system();
    const auto rows = static_cast<std::size_t>(sub.input_count()) + 1;
    uhcg::core::SubsystemReach table(rows);
    for (int i = 1; i <= sub.input_count(); ++i) {
        for (const Block* in : sys.blocks()) {
            if (in->type() != BlockType::Inport || port_number(*in) != i) continue;
            std::set<OracleAtom> seen = oracle_closure(sys, {{in, 1, true}});
            for (const Block* out : sys.blocks())
                if (out->type() == BlockType::Outport &&
                    seen.count({out, 1, false}) != 0)
                    table[static_cast<std::size_t>(i)].push_back(port_number(*out));
        }
        auto& row = table[static_cast<std::size_t>(i)];
        std::sort(row.begin(), row.end());
        row.erase(std::unique(row.begin(), row.end()), row.end());
        std::erase_if(row, [&](int j) { return j < 1 || j > sub.output_count(); });
    }
    return table;
}

/// True when some atom of `sys` or of a nested system reaches itself.
bool oracle_cycle(const System& sys) {
    for (const Block* b : sys.blocks()) {
        if (b->system() && oracle_cycle(*b->system())) return true;
        for (int out = 0; out < 2; ++out)
            for (int p = 1; p <= (out ? b->output_count() : b->input_count()); ++p) {
                OracleAtom a{b, p, out == 1};
                if (oracle_closure(sys, oracle_next(sys, a)).count(a) != 0)
                    return true;
            }
    }
    return false;
}

/// A subsystem body with `ins`/`outs` boundary markers, a few random
/// blocks (a nested subsystem when `depth` allows) and random wiring, so
/// combinational cycles inside are common.
void fill_random(Block& sub, int ins, int outs, int depth, std::mt19937& rng) {
    System& sys = *sub.system();
    sub.set_ports(ins, outs);
    auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<unsigned>(n));
    };
    std::vector<PortRef> sources, sinks;
    for (int i = 1; i <= ins; ++i) {
        Block& b = sys.add_block("in" + std::to_string(i), BlockType::Inport);
        b.set_parameter("Port", std::to_string(i));
        sources.push_back({&b, 1});
    }
    for (int j = 1; j <= outs; ++j) {
        Block& b = sys.add_block("out" + std::to_string(j), BlockType::Outport);
        b.set_parameter("Port", std::to_string(j));
        sinks.push_back({&b, 1});
    }
    const BlockType kinds[] = {BlockType::Gain, BlockType::Sum, BlockType::UnitDelay,
                               BlockType::SubSystem};
    const int blocks = 3 + pick(6);
    for (int k = 0; k < blocks; ++k) {
        BlockType type = kinds[pick(depth > 0 ? 4 : 3)];
        Block& b = sys.add_block("k" + std::to_string(k), type);
        if (type == BlockType::SubSystem) {
            const int nested_ins = 1 + pick(3);
            fill_random(b, nested_ins, 1 + pick(3), depth - 1, rng);
        }
        for (int p = 1; p <= b.input_count(); ++p) sinks.push_back({&b, p});
        for (int p = 1; p <= b.output_count(); ++p) sources.push_back({&b, p});
    }
    for (const PortRef& dst : sinks)
        if (pick(5) != 0)
            sys.add_line(sources[static_cast<std::size_t>(pick(
                             static_cast<int>(sources.size())))],
                         dst);
}

TEST(SubsystemReach, MatchesAPerInportDfsWithInternalCycles) {
    int inner_cycles = 0, outer_cycles = 0;
    for (unsigned seed = 1; seed <= 200; ++seed) {
        std::mt19937 rng(seed);
        Model m("m");
        Block& sub = m.root().add_subsystem("S");
        const int ins = 1 + static_cast<int>(rng() % 4);
        fill_random(sub, ins, 1 + static_cast<int>(rng() % 4), 1, rng);
        ASSERT_EQ(uhcg::core::combinational_reach(sub), oracle_reach(sub))
            << "seed " << seed;
        const bool inner = uhcg::core::has_combinational_cycle(m);
        ASSERT_EQ(inner, oracle_cycle(m.root())) << "seed " << seed;
        inner_cycles += inner ? 1 : 0;
        // Feed every output back into an input: the parent now has a cycle
        // exactly when the table says some input reaches that output.
        for (int j = 1; j <= sub.output_count(); ++j) {
            PortRef dst{&sub, 1 + (j - 1) % sub.input_count()};
            if (!m.root().line_into(dst)) m.root().add_line({&sub, j}, dst);
        }
        const bool outer = uhcg::core::has_combinational_cycle(m);
        ASSERT_EQ(outer, oracle_cycle(m.root())) << "seed " << seed;
        outer_cycles += outer && !inner ? 1 : 0;
    }
    // Both kinds of cycle occur across the seeds.
    EXPECT_GT(inner_cycles, 10);
    EXPECT_GT(outer_cycles, 10);
}

TEST(SimulinkEnums, RoundTrips) {
    for (BlockType t : {BlockType::SubSystem, BlockType::Inport, BlockType::Outport,
                        BlockType::SFunction, BlockType::Product, BlockType::Sum,
                        BlockType::Gain, BlockType::UnitDelay, BlockType::Constant,
                        BlockType::Scope, BlockType::CommChannel})
        EXPECT_EQ(block_type_from_string(to_string(t)), t);
    for (CaamRole r : {CaamRole::None, CaamRole::CpuSubsystem,
                       CaamRole::ThreadSubsystem, CaamRole::InterCpuChannel,
                       CaamRole::IntraCpuChannel})
        EXPECT_EQ(caam_role_from_string(to_string(r)), r);
}

TEST(SimulinkLibrary, PlatformLookup) {
    EXPECT_TRUE(is_predefined("mult"));
    EXPECT_TRUE(is_predefined("add"));
    EXPECT_TRUE(is_predefined("gain"));
    EXPECT_TRUE(is_predefined("delay"));
    EXPECT_FALSE(is_predefined("calc"));
    auto entry = lookup_platform_method("mult");
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->type, BlockType::Product);
    EXPECT_EQ(entry->inputs, 2);
}

// --- CAAM helpers ----------------------------------------------------------------

class CaamFixture : public ::testing::Test {
protected:
    Model m{"caam"};
    Block* cpu1 = nullptr;
    Block* t1 = nullptr;

    void SetUp() override {
        cpu1 = &m.root().add_subsystem("CPU1", CaamRole::CpuSubsystem);
        t1 = &cpu1->system()->add_subsystem("T1", CaamRole::ThreadSubsystem);
    }
};

TEST_F(CaamFixture, Queries) {
    EXPECT_EQ(cpu_subsystems(m).size(), 1u);
    EXPECT_EQ(thread_subsystems(*cpu1).size(), 1u);
    Block& chan = m.root().add_block("ch", BlockType::CommChannel);
    chan.set_role(CaamRole::InterCpuChannel);
    chan.set_parameter("Protocol", kProtocolGFifo);
    EXPECT_EQ(inter_cpu_channels(m).size(), 1u);
    EXPECT_EQ(intra_cpu_channels(m).size(), 0u);
}

TEST_F(CaamFixture, StatsCount) {
    t1->system()->add_block("f", BlockType::SFunction);
    t1->system()->add_block("p", BlockType::Product).set_ports(0, 1);
    t1->system()->add_block("d", BlockType::UnitDelay).set_ports(0, 1);
    CaamStats s = caam_stats(m);
    EXPECT_EQ(s.cpus, 1u);
    EXPECT_EQ(s.threads, 1u);
    EXPECT_EQ(s.sfunctions, 1u);
    EXPECT_EQ(s.predefined_blocks, 1u);
    EXPECT_EQ(s.unit_delays, 1u);
}

TEST_F(CaamFixture, ValidatorC1NestingRules) {
    // A CPU-SS nested inside a CPU-SS violates C1.
    cpu1->system()->add_subsystem("CPU_bad", CaamRole::CpuSubsystem);
    // A Thread-SS at the root violates C1 too.
    m.root().add_subsystem("T_bad", CaamRole::ThreadSubsystem);
    auto problems = validate_caam(m);
    int c1 = 0;
    for (const auto& p : problems)
        if (p.rfind("C1", 0) == 0) ++c1;
    EXPECT_EQ(c1, 2);
}

TEST_F(CaamFixture, ValidatorC2C3Protocols) {
    Block& inter = m.root().add_block("gi", BlockType::CommChannel);
    inter.set_role(CaamRole::InterCpuChannel);
    inter.set_parameter("Protocol", kProtocolSwFifo);  // wrong protocol
    Block& intra = cpu1->system()->add_block("si", BlockType::CommChannel);
    intra.set_role(CaamRole::IntraCpuChannel);
    intra.set_parameter("Protocol", kProtocolGFifo);  // wrong protocol
    auto problems = validate_caam(m);
    int hits = 0;
    for (const auto& p : problems)
        if (p.find("protocol") != std::string::npos) ++hits;
    EXPECT_EQ(hits, 2);
}

TEST_F(CaamFixture, ValidatorC4PortMismatch) {
    t1->set_ports(1, 0);  // declares an input but contains no Inport block
    auto problems = validate_caam(m);
    bool found = false;
    for (const auto& p : problems)
        if (p.rfind("C4", 0) == 0) found = true;
    EXPECT_TRUE(found);
}

TEST_F(CaamFixture, ValidatorC5UndrivenInput) {
    t1->system()->add_block("g", BlockType::Gain);  // input 1 undriven
    auto problems = validate_caam(m);
    bool found = false;
    for (const auto& p : problems)
        if (p.rfind("C5", 0) == 0) found = true;
    EXPECT_TRUE(found);
}

// --- mdl I/O --------------------------------------------------------------------

Model build_mdl_sample() {
    Model m("sample");
    m.stop_time = 42.0;
    m.fixed_step = 0.5;
    Block& cpu = m.root().add_subsystem("CPU1", CaamRole::CpuSubsystem);
    cpu.set_ports(0, 1);
    Block& t = cpu.system()->add_subsystem("T1", CaamRole::ThreadSubsystem);
    t.set_ports(0, 1);
    t.set_output_name(1, "y");
    Block& c = t.system()->add_block("c", BlockType::Constant);
    c.set_parameter("Value", "3.5");
    Block& f = t.system()->add_block("calc", BlockType::SFunction);
    f.set_ports(1, 1);
    f.set_parameter("FunctionName", "calc");
    f.set_parameter("Source", "    out[0] = in[0] * 2;\n    /* two lines */");
    f.set_input_name(1, "x");
    f.set_output_name(1, "y");
    Block& out = t.system()->add_block("y_out", BlockType::Outport);
    out.set_parameter("Port", "1");
    t.system()->add_line({&c, 1}, {&f, 1}, "x");
    t.system()->add_line({&f, 1}, {&out, 1}, "y");
    Block& cpu_out = cpu.system()->add_block("y_out", BlockType::Outport);
    cpu_out.set_parameter("Port", "1");
    cpu.system()->add_line({&t, 1}, {&cpu_out, 1});
    Block& sys_out = m.root().add_block("Out1", BlockType::Outport);
    sys_out.set_parameter("Port", "1");
    m.root().add_line({&cpu, 1}, {&sys_out, 1});
    return m;
}

TEST(Mdl, WriterEmitsExpectedSections) {
    std::string text = write_mdl(build_mdl_sample());
    EXPECT_NE(text.find("Model {"), std::string::npos);
    EXPECT_NE(text.find("BlockType SubSystem"), std::string::npos);
    EXPECT_NE(text.find("Tag \"CPU-SS\""), std::string::npos);
    EXPECT_NE(text.find("SrcBlock \"calc\""), std::string::npos);
    EXPECT_NE(text.find("\\n"), std::string::npos);  // escaped newline in Source
}

TEST(Mdl, RoundTripPreservesEverything) {
    Model original = build_mdl_sample();
    Model copy = parse_mdl(write_mdl(original));
    EXPECT_EQ(copy.name(), "sample");
    EXPECT_DOUBLE_EQ(copy.stop_time, 42.0);
    EXPECT_DOUBLE_EQ(copy.fixed_step, 0.5);
    EXPECT_EQ(copy.root().total_blocks(), original.root().total_blocks());
    EXPECT_EQ(copy.root().total_lines(), original.root().total_lines());
    Block* cpu = copy.root().find_block("CPU1");
    ASSERT_NE(cpu, nullptr);
    EXPECT_EQ(cpu->role(), CaamRole::CpuSubsystem);
    Block* t = cpu->system()->find_block("T1");
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->output_name(1), "y");
    Block* f = t->system()->find_block("calc");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->parameter_or("FunctionName", ""), "calc");
    // Multi-line Source survives escaping.
    EXPECT_NE(f->parameter_or("Source", "").find('\n'), std::string::npos);
    // Second trip is byte-stable.
    EXPECT_EQ(write_mdl(copy), write_mdl(original));
}

TEST(Mdl, BranchesRoundTrip) {
    Model m("b");
    Block& c = m.root().add_block("c", BlockType::Constant);
    Block& g1 = m.root().add_block("g1", BlockType::Gain);
    Block& g2 = m.root().add_block("g2", BlockType::Gain);
    m.root().add_line({&c, 1}, {&g1, 1});
    m.root().add_line({&c, 1}, {&g2, 1});
    Model copy = parse_mdl(write_mdl(m));
    ASSERT_EQ(copy.root().lines().size(), 1u);
    EXPECT_EQ(copy.root().lines()[0]->destinations().size(), 2u);
}

TEST(Mdl, ParserErrors) {
    EXPECT_THROW(parse_mdl("nonsense"), std::runtime_error);
    EXPECT_THROW(parse_mdl("Model {\n  Name \"x\"\n"), std::runtime_error);
    EXPECT_THROW(parse_mdl("Model {\n  System {\n    Name \"x\"\n    Block {\n"
                           "      BlockType Warp\n      Name \"b\"\n    }\n  }\n}\n"),
                 std::runtime_error);
    EXPECT_THROW(
        parse_mdl("Model {\n  Name \"x\"\n  System {\n    Name \"x\"\n"
                  "    Line {\n      SrcBlock \"ghost\"\n      SrcPort 1\n"
                  "      DstBlock \"ghost\"\n      DstPort 1\n    }\n  }\n}\n"),
        std::runtime_error);
}

TEST(Mdl, FileRoundTrip) {
    Model m = build_mdl_sample();
    std::string path = testing::TempDir() + "/uhcg_sample.mdl";
    save_mdl(m, path);
    Model loaded = load_mdl(path);
    EXPECT_EQ(loaded.name(), "sample");
}

// --- generic bridge ----------------------------------------------------------------

TEST(SimulinkGeneric, RoundTripThroughObjectModel) {
    Model original = build_mdl_sample();
    uhcg::model::ObjectModel generic = to_generic(original);
    Model back = from_generic(generic);
    EXPECT_EQ(write_mdl(back), write_mdl(original));
}

TEST(SimulinkGeneric, MetamodelIsWellFormed) {
    EXPECT_TRUE(caam_metamodel().check().empty());
}

TEST(SimulinkDot, NestedClustersAndLabels) {
    Model m = build_mdl_sample();
    std::string dot = to_dot(m);
    EXPECT_NE(dot.find("digraph \"sample\""), std::string::npos);
    EXPECT_NE(dot.find("label=\"CPU1 <CPU-SS>\""), std::string::npos);
    EXPECT_NE(dot.find("label=\"T1 <Thread-SS>\""), std::string::npos);
    EXPECT_NE(dot.find("[S-Function]"), std::string::npos);
    EXPECT_NE(dot.find("label=\"x\""), std::string::npos);  // signal name
}

// --- the one-buffer writers ---------------------------------------------------------

TEST(Mdl, WriteParseWriteIsAFixedPointOnGeneratedCaams) {
    // The four case studies, plus corpus-002 of `uhcg synth-corpus big
    // --corpus-models 3 --min-threads 200 --max-threads 400 --seed 7`.
    uhcg::campaign::CorpusOptions big;
    big.models = 3;
    big.seed = 7;
    big.min_threads = 200;
    big.max_threads = 400;
    std::vector<uhcg::uml::Model> models;
    models.push_back(uhcg::cases::didactic_model());
    models.push_back(uhcg::cases::crane_model());
    models.push_back(uhcg::cases::synthetic_model());
    models.push_back(uhcg::cases::mixed_model());
    models.push_back(uhcg::campaign::synth_model(big, 2));
    for (const uhcg::uml::Model& model : models) {
        uhcg::core::MapperOptions options;
        options.auto_allocate = model.deployment_or_null() == nullptr;
        const Model caam = uhcg::core::map_to_caam(model, options);
        const std::string text = write_mdl(caam);
        EXPECT_EQ(write_mdl(parse_mdl(text)), text) << model.name();
    }
}

TEST(Mdl, QuotesBackslashesAndNewlinesRoundTripExactly) {
    const std::string name = "say \"hi\" \\ then\nwrap";
    const std::string value = "a \"b\" \\c\n\\nd";
    Model m("q\"uote");
    Block& b = m.root().add_block(name, BlockType::Constant);
    b.set_parameter("Value", value);
    const std::string text = write_mdl(m);
    EXPECT_NE(text.find("Name \"say \\\"hi\\\" \\\\ then\\nwrap\"\n"),
              std::string::npos)
        << text;
    Model back = parse_mdl(text);
    EXPECT_EQ(back.name(), "q\"uote");
    const Block* rb = back.root().find_block(name);
    ASSERT_NE(rb, nullptr) << text;
    ASSERT_NE(rb->find_parameter("Value"), nullptr);
    EXPECT_EQ(*rb->find_parameter("Value"), value);
    EXPECT_EQ(write_mdl(back), text);
}

/// A nested empty subsystem as the first block of a subsystem, a branch
/// and a line from one subsystem to another: every edge-anchor path.
Model dot_probe_model() {
    Model m("probe");
    System& root = m.root();
    Block& cpu = root.add_subsystem("CPU1", CaamRole::CpuSubsystem);
    cpu.set_ports(0, 1);
    System& cs = *cpu.system();
    Block& gain = cs.add_block("gain", BlockType::Gain);
    gain.set_ports(1, 1);
    Block& delay = cs.add_block("z", BlockType::UnitDelay);
    delay.set_ports(1, 1);
    Block& y = cs.add_block("y", BlockType::Outport);
    cs.add_line({&delay, 1}, {&gain, 1}, "u");
    cs.add_line({&gain, 1}, {&y, 1}, "y");
    cs.add_line({&gain, 1}, {&delay, 1});
    Block& sink = root.add_subsystem("Sink");
    sink.set_ports(2, 0);
    System& ss = *sink.system();
    ss.add_subsystem("Empty");
    ss.add_block("x", BlockType::Inport);
    Block& chan = root.add_block("chan", BlockType::CommChannel);
    chan.set_ports(1, 1);
    root.add_line({&cpu, 1}, {&chan, 1}, "y");
    root.add_line({&cpu, 1}, {&sink, 2});
    root.add_line({&chan, 1}, {&sink, 1}, "y2");
    return m;
}

TEST(SimulinkDot, AnchorsAndIdsMatchThePinnedText) {
    // Node ids are dense in first-use order; an edge to a subsystem
    // anchors on its first inner block, recursively, and an empty
    // subsystem anchors on itself.
    EXPECT_EQ(to_dot(dot_probe_model()),
              "digraph \"probe\" {\n"
              "  rankdir=LR;\n"
              "  compound=true;\n"
              "  node [fontsize=10];\n"
              "  subgraph cluster_n0 {\n"
              "    label=\"CPU1 <CPU-SS>\";\n"
              "    style=rounded;\n"
              "    n1 [shape=box label=\"gain\\n[Gain]\"];\n"
              "    n2 [shape=square label=\"z\\n[UnitDelay]\"];\n"
              "    n3 [shape=larrow label=\"y\"];\n"
              "    n2 -> n1 [label=\"u\"];\n"
              "    n1 -> n3 [label=\"y\"];\n"
              "    n1 -> n2 [label=\"y\"];\n"
              "  }\n"
              "  subgraph cluster_n4 {\n"
              "    label=\"Sink\";\n"
              "    style=rounded;\n"
              "    subgraph cluster_n5 {\n"
              "      label=\"Empty\";\n"
              "      style=rounded;\n"
              "    }\n"
              "    n6 [shape=rarrow label=\"x\"];\n"
              "  }\n"
              "  n7 [shape=cds label=\"chan\\n[CommChannel]\"];\n"
              "  n1 -> n7 [label=\"y\"];\n"
              "  n1 -> n5 [label=\"y\"];\n"
              "  n7 -> n5 [label=\"y2\"];\n"
              "}\n");
}

}  // namespace
