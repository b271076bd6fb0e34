// Tests for the Simulink CAAM metamodel, block library, mdl writer/parser
// and structural validation.
#include <gtest/gtest.h>

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

}  // namespace
