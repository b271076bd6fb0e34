// Tests for the §4.2 optimizations: channel inference (§4.2.1) and
// temporal-barrier insertion (§4.2.2).
#include <gtest/gtest.h>

#include "cases/cases.hpp"
#include "core/delays.hpp"
#include "core/optimize.hpp"
#include "core/pipeline.hpp"
#include "simulink/caam.hpp"
#include "simulink/mdl.hpp"
#include "uml/builder.hpp"

namespace {

using namespace uhcg;
using namespace uhcg::core;
using simulink::Block;
using simulink::BlockType;
using simulink::CaamRole;

class DidacticOptimized : public ::testing::Test {
protected:
    MapperReport report;
    simulink::Model caam =
        map_to_caam(cases::didactic_model(), MapperOptions{}, &report);
};

TEST_F(DidacticOptimized, IntraChannelIsSwFifoInsideCpu) {
    // T1 → T2 (same CPU1): one SWFIFO inside CPU1.
    EXPECT_EQ(report.channels.intra_channels, 1u);
    auto intra = simulink::intra_cpu_channels(caam);
    ASSERT_EQ(intra.size(), 1u);
    EXPECT_EQ(intra[0]->parameter_or("Protocol", ""), simulink::kProtocolSwFifo);
    EXPECT_EQ(intra[0]->parent()->owner_block()->name(), "CPU1");
}

TEST_F(DidacticOptimized, InterChannelIsGFifoAtRoot) {
    // T3 (CPU2) → T1 (CPU1): one GFIFO at the architecture layer.
    EXPECT_EQ(report.channels.inter_channels, 1u);
    auto inter = simulink::inter_cpu_channels(caam);
    ASSERT_EQ(inter.size(), 1u);
    EXPECT_EQ(inter[0]->parameter_or("Protocol", ""), simulink::kProtocolGFifo);
    EXPECT_EQ(inter[0]->parent(), &caam.root());
}

TEST_F(DidacticOptimized, CpuBoundaryPortsGrown) {
    auto cpus = simulink::cpu_subsystems(caam);
    Block* cpu1 = cpus[0];
    Block* cpu2 = cpus[1];
    // CPU2 exports v; CPU1 imports it.
    EXPECT_GT(cpu2->output_named("v"), 0);
    EXPECT_GT(cpu1->input_named("v"), 0);
}

TEST_F(DidacticOptimized, SystemPortsNumbered) {
    // a + x (open inputs of T1) + s (io input of T3) = 3 system inputs;
    // w (io output of T2) = 1 system output, named like Fig. 3(c).
    EXPECT_EQ(report.channels.system_inputs, 3u);
    EXPECT_EQ(report.channels.system_outputs, 1u);
    EXPECT_NE(caam.root().find_block("In1"), nullptr);
    EXPECT_NE(caam.root().find_block("In2"), nullptr);
    EXPECT_NE(caam.root().find_block("In3"), nullptr);
    EXPECT_NE(caam.root().find_block("Out1"), nullptr);
    EXPECT_EQ(caam.root().find_block("Out1")->parameter_or("Var", ""), "w");
}

TEST_F(DidacticOptimized, ResultValidates) {
    auto problems = simulink::validate_caam(caam);
    EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(ChannelInference, FanOutBranchesFromOneProducerPort) {
    // One producer sends x to two consumers on different CPUs: the producer
    // CPU gets a single boundary port with two GFIFO branches at the root.
    uml::ModelBuilder b("fan");
    b.thread("P");
    b.thread("C1");
    b.thread("C2");
    b.platform();
    auto sd = b.seq("sd");
    sd.message("P", "Platform", "gain").arg("1.0").result("x");
    sd.message("P", "C1", "SetX").arg("x");
    sd.message("P", "C2", "SetX").arg("x");
    sd.message("C1", "Platform", "gain").arg("x").result("y1");
    sd.message("C2", "Platform", "gain").arg("x").result("y2");
    b.cpu("CPU1");
    b.cpu("CPU2");
    b.cpu("CPU3");
    b.deploy("P", "CPU1").deploy("C1", "CPU2").deploy("C2", "CPU3");
    MapperReport report;
    simulink::Model caam = map_to_caam(b.take(), {}, &report);
    EXPECT_EQ(report.channels.inter_channels, 2u);
    Block* cpu1 = simulink::cpu_subsystems(caam)[0];
    EXPECT_EQ(cpu1->output_count(), 1);  // one shared boundary port
    const simulink::Line* line = caam.root().line_from({cpu1, 1});
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->destinations().size(), 2u);  // branches to both channels
    EXPECT_TRUE(simulink::validate_caam(caam).empty());
}

TEST(ChannelInference, SetAndGetOnSameLinkDeduplicate) {
    uml::ModelBuilder b("dup");
    b.thread("P");
    b.thread("C");
    b.platform();
    auto sd = b.seq("sd");
    sd.message("P", "Platform", "gain").arg("1.0").result("x");
    sd.message("P", "C", "SetX").arg("x");
    sd.message("C", "P", "GetX").result("x");  // same link, consumer side
    sd.message("C", "Platform", "gain").arg("x").result("y");
    b.cpu("CPU1");
    b.deploy("P", "CPU1").deploy("C", "CPU1");
    MapperReport report;
    simulink::Model caam = map_to_caam(b.take(), {}, &report);
    EXPECT_EQ(report.channels.intra_channels, 1u);
    EXPECT_TRUE(simulink::validate_caam(caam).empty());
}

TEST(SubsystemPortHelpers, GrowPortsAndWire) {
    simulink::Model m("m");
    Block& sub = m.root().add_subsystem("S");
    Block& g = sub.system()->add_block("g", BlockType::Gain);
    int in = add_subsystem_input(sub, "u", {&g, 1});
    int out = add_subsystem_output(sub, "y", {&g, 1});
    EXPECT_EQ(in, 1);
    EXPECT_EQ(out, 1);
    EXPECT_EQ(sub.input_name(1), "u");
    EXPECT_EQ(sub.output_name(1), "y");
    // The inner marker blocks exist and are wired.
    EXPECT_EQ(sub.system()->blocks_of(BlockType::Inport).size(), 1u);
    EXPECT_EQ(sub.system()->blocks_of(BlockType::Outport).size(), 1u);
    EXPECT_NE(sub.system()->line_into({&g, 1}), nullptr);
}

// --- temporal barriers (§4.2.2) -------------------------------------------------------

simulink::Model simple_loop_model() {
    // gain → delayless feedback through a Sum: a combinational cycle.
    simulink::Model m("loop");
    Block& sum = m.root().add_block("sum", BlockType::Sum);
    Block& gain = m.root().add_block("gain", BlockType::Gain);
    Block& c = m.root().add_block("c", BlockType::Constant);
    m.root().add_line({&c, 1}, {&sum, 1});
    m.root().add_line({&sum, 1}, {&gain, 1});
    m.root().add_line({&gain, 1}, {&sum, 2});  // the cycle
    return m;
}

TEST(TemporalBarriers, DetectsAndBreaksSimpleLoop) {
    simulink::Model m = simple_loop_model();
    EXPECT_TRUE(has_combinational_cycle(m));
    DelayReport report = insert_temporal_barriers(m);
    EXPECT_EQ(report.inserted, 1u);
    EXPECT_FALSE(has_combinational_cycle(m));
    // The delay is a UnitDelay block spliced into a data link.
    EXPECT_EQ(m.root().blocks_of(BlockType::UnitDelay).size(), 1u);
}

TEST(TemporalBarriers, Idempotent) {
    simulink::Model m = simple_loop_model();
    insert_temporal_barriers(m);
    DelayReport second = insert_temporal_barriers(m);
    EXPECT_EQ(second.inserted, 0u);
}

TEST(TemporalBarriers, UnitDelayAlreadyBreaksLoop) {
    simulink::Model m("ok");
    Block& sum = m.root().add_block("sum", BlockType::Sum);
    Block& delay = m.root().add_block("z", BlockType::UnitDelay);
    Block& c = m.root().add_block("c", BlockType::Constant);
    m.root().add_line({&c, 1}, {&sum, 1});
    m.root().add_line({&sum, 1}, {&delay, 1});
    m.root().add_line({&delay, 1}, {&sum, 2});
    EXPECT_FALSE(has_combinational_cycle(m));
    EXPECT_EQ(insert_temporal_barriers(m).inserted, 0u);
}

TEST(TemporalBarriers, ParallelPathsThroughSubsystemAreNotCycles) {
    // in1 → sub.in1 → sub.out1 → ... and a separate in2/out2 path back:
    // only a *combinational* in→out pair closes a loop.
    simulink::Model m("sub");
    Block& sub = m.root().add_subsystem("S");
    sub.set_ports(2, 2);
    Block& i1 = sub.system()->add_block("i1", BlockType::Inport);
    i1.set_parameter("Port", "1");
    Block& i2 = sub.system()->add_block("i2", BlockType::Inport);
    i2.set_parameter("Port", "2");
    Block& o1 = sub.system()->add_block("o1", BlockType::Outport);
    o1.set_parameter("Port", "1");
    Block& o2 = sub.system()->add_block("o2", BlockType::Outport);
    o2.set_parameter("Port", "2");
    // Inside: in1→out1 direct, in2→delay→out2 (state-broken).
    Block& z = sub.system()->add_block("z", BlockType::UnitDelay);
    sub.system()->add_line({&i1, 1}, {&o1, 1});
    sub.system()->add_line({&i2, 1}, {&z, 1});
    sub.system()->add_line({&z, 1}, {&o2, 1});
    // Outside: out2 feeds in2 — through the *delayed* path only.
    Block& g = m.root().add_block("g", BlockType::Gain);
    Block& c = m.root().add_block("c", BlockType::Constant);
    m.root().add_line({&c, 1}, {&sub, 1});
    m.root().add_line({&sub, 2}, {&g, 1});
    m.root().add_line({&g, 1}, {&sub, 2});
    EXPECT_FALSE(has_combinational_cycle(m));
    EXPECT_EQ(insert_temporal_barriers(m).inserted, 0u);
}

TEST(TemporalBarriers, CycleThroughSubsystemDetected) {
    // As above but the feedback goes through the *combinational* pair.
    simulink::Model m("sub2");
    Block& sub = m.root().add_subsystem("S");
    sub.set_ports(1, 1);
    Block& i1 = sub.system()->add_block("i1", BlockType::Inport);
    i1.set_parameter("Port", "1");
    Block& o1 = sub.system()->add_block("o1", BlockType::Outport);
    o1.set_parameter("Port", "1");
    sub.system()->add_line({&i1, 1}, {&o1, 1});
    Block& g = m.root().add_block("g", BlockType::Gain);
    m.root().add_line({&sub, 1}, {&g, 1});
    m.root().add_line({&g, 1}, {&sub, 1});
    EXPECT_TRUE(has_combinational_cycle(m));
    DelayReport report = insert_temporal_barriers(m);
    EXPECT_EQ(report.inserted, 1u);
    EXPECT_FALSE(has_combinational_cycle(m));
}

TEST(TemporalBarriers, NonNumericSubsystemPortNamesTheBlock) {
    // A parsed model whose subsystem Inport carries Port "x": the error
    // names the block's full path instead of a bare stoi failure.
    simulink::Model built("bad");
    Block& sub = built.root().add_subsystem("S");
    sub.set_ports(1, 1);
    Block& in = sub.system()->add_block("in", BlockType::Inport);
    in.set_parameter("Port", "x");
    Block& out = sub.system()->add_block("out", BlockType::Outport);
    out.set_parameter("Port", "1");
    sub.system()->add_line({&in, 1}, {&out, 1});
    Block& g = built.root().add_block("g", BlockType::Gain);
    built.root().add_line({&sub, 1}, {&g, 1});
    built.root().add_line({&g, 1}, {&sub, 1});
    simulink::Model m = simulink::parse_mdl(simulink::write_mdl(built));
    ASSERT_EQ(*m.root().find_block("S")->system()->find_block("in")
                   ->find_parameter("Port"),
              "x");
    try {
        insert_temporal_barriers(m);
        ADD_FAILURE() << "no error for Port \"x\"";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("'S/in'"), std::string::npos)
            << e.what();
    }
}

TEST(TemporalBarriers, BranchedLineOnlyCutsTheLoopingArm) {
    simulink::Model m("branch");
    Block& sum = m.root().add_block("sum", BlockType::Sum);
    Block& scope = m.root().add_block("scope", BlockType::Scope);
    Block& g = m.root().add_block("g", BlockType::Gain);
    Block& c = m.root().add_block("c", BlockType::Constant);
    m.root().add_line({&c, 1}, {&sum, 1});
    m.root().add_line({&sum, 1}, {&g, 1});
    m.root().add_line({&sum, 1}, {&scope, 1});  // branch off the loop
    m.root().add_line({&g, 1}, {&sum, 2});
    insert_temporal_barriers(m);
    EXPECT_FALSE(has_combinational_cycle(m));
    // The scope branch still sees the undelayed sum output.
    const simulink::Line* into_scope = m.root().line_into({&scope, 1});
    ASSERT_NE(into_scope, nullptr);
    EXPECT_EQ(into_scope->source().block->name(), "sum");
}

TEST(TemporalBarriers, CraneLoopBrokenAtCpuLevel) {
    MapperReport report;
    simulink::Model caam = map_to_caam(cases::crane_model(), {}, &report);
    EXPECT_GE(report.delays.inserted, 1u);
    EXPECT_FALSE(has_combinational_cycle(caam));
    // §5.1: the delay lives inside the (single) CPU, breaking the
    // T1→T2→T3→T1 loop through the SWFIFO channels.
    Block* cpu1 = simulink::cpu_subsystems(caam)[0];
    EXPECT_FALSE(cpu1->system()->blocks_of(BlockType::UnitDelay).empty());
}

TEST(TemporalBarriers, AcyclicModelUntouched) {
    MapperReport report;
    simulink::Model caam = map_to_caam(cases::didactic_model(), {}, &report);
    EXPECT_EQ(report.delays.inserted, 0u);
}

TEST(ChannelInference, SameNamedIoVarsOnOneCpuDoNotCollide) {
    // Two threads on the same CPU both read an <<IO>> variable called
    // "sensor": the CPU boundary must grow two distinct ports.
    uml::ModelBuilder b("collide");
    b.thread("A");
    b.thread("B");
    b.platform();
    b.iodevice("Dev");
    auto sd = b.seq("sd");
    sd.message("A", "Dev", "getSensor").result("sensor");
    sd.message("A", "Platform", "gain").arg("sensor").result("ya");
    sd.message("A", "Dev", "setYa").arg("ya");
    sd.message("B", "Dev", "getSensor").result("sensor");
    sd.message("B", "Platform", "gain").arg("sensor").result("yb");
    sd.message("B", "Dev", "setYb").arg("yb");
    b.cpu("CPU1");
    b.deploy("A", "CPU1").deploy("B", "CPU1");
    MapperReport report;
    simulink::Model caam = map_to_caam(b.take(), {}, &report);
    EXPECT_EQ(report.channels.system_inputs, 2u);
    EXPECT_EQ(report.channels.system_outputs, 2u);
    auto problems = simulink::validate_caam(caam);
    EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(ChannelInference, ChainedForwardingAcrossThreeCpus) {
    // A → B → C where B just forwards: exercises the inport→outport
    // pass-through path and double boundary growth.
    uml::ModelBuilder b("chain3");
    b.thread("A");
    b.thread("B");
    b.thread("C");
    b.platform();
    b.iodevice("Dev");
    auto sd = b.seq("sd");
    sd.message("A", "Platform", "gain").arg("1.0").result("x");
    sd.message("A", "B", "SetX").arg("x");
    sd.message("B", "C", "SetX").arg("x");  // pass-through
    sd.message("C", "Platform", "gain").arg("x").result("y");
    sd.message("C", "Dev", "setY").arg("y");
    b.cpu("P0");
    b.cpu("P1");
    b.cpu("P2");
    b.deploy("A", "P0").deploy("B", "P1").deploy("C", "P2");
    MapperReport report;
    simulink::Model caam = map_to_caam(b.take(), {}, &report);
    EXPECT_EQ(report.channels.inter_channels, 2u);
    EXPECT_TRUE(simulink::validate_caam(caam).empty());

    // And it executes: the value flows through both GFIFOs.
    sim::SFunctionRegistry registry;
    sim::Simulator simulator(caam, registry);
    sim::SimResult r = simulator.run(3);
    EXPECT_EQ(r.channel_traffic.at("GFIFO"), 6u);
    EXPECT_DOUBLE_EQ(r.outputs.at("y").back(), 1.0);
}

TEST(ChannelInference, ContendedConsumerPortWarnsInsteadOfCrashing) {
    // Two producers of the same variable for one consumer (E7 violation);
    // with enforcement off, inference must degrade gracefully.
    uml::ModelBuilder b("contend");
    b.thread("A");
    b.thread("B");
    b.thread("C");
    b.platform();
    auto sd = b.seq("sd");
    sd.message("A", "Platform", "gain").arg("1.0").result("x");
    sd.message("B", "Platform", "gain").arg("2.0").result("x");
    sd.message("A", "C", "SetX").arg("x");
    sd.message("B", "C", "SetX").arg("x");
    sd.message("C", "Platform", "gain").arg("x").result("y");
    b.cpu("CPU1");
    b.deploy("A", "CPU1").deploy("B", "CPU1").deploy("C", "CPU1");
    MapperOptions options;
    options.enforce_wellformedness = false;
    MapperReport report;
    simulink::Model caam = map_to_caam(b.take(), options, &report);
    bool warned = false;
    for (const std::string& w : report.warnings())
        if (w.find("already driven") != std::string::npos) warned = true;
    EXPECT_TRUE(warned);
    // Exactly one of the two channels wired.
    EXPECT_EQ(report.channels.intra_channels, 1u);
    (void)caam;
}

}  // namespace
