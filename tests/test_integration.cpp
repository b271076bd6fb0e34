// End-to-end integration tests: the paper's case studies through the whole
// flow (UML → CAAM → mdl → execution → code generation), XMI ingestion,
// and property sweeps over randomly generated multi-thread applications.
#include <gtest/gtest.h>

#include "cases/cases.hpp"
#include "codegen/caam_to_c.hpp"
#include "codegen/uml_to_cpp.hpp"
#include "core/delays.hpp"
#include "core/pipeline.hpp"
#include "sim/engine.hpp"
#include "simulink/caam.hpp"
#include "simulink/mdl.hpp"
#include "uml/builder.hpp"
#include "uml/wellformed.hpp"
#include "uml/xmi.hpp"

namespace {

using namespace uhcg;

// --- crane (§5.1) ------------------------------------------------------------------

class CraneEndToEnd : public ::testing::Test {
protected:
    core::MapperReport report;
    simulink::Model caam =
        core::map_to_caam(cases::crane_model(), core::MapperOptions{}, &report);
    sim::SFunctionRegistry registry;

    void SetUp() override { cases::register_crane_sfunctions(registry); }
};

TEST_F(CraneEndToEnd, ModelValidates) {
    EXPECT_TRUE(simulink::validate_caam(caam).empty());
    EXPECT_TRUE(report.warnings().empty());
}

TEST_F(CraneEndToEnd, DeadlocksWithoutBarriersRunsWithThem) {
    core::MapperOptions no_delays;
    no_delays.insert_delays = false;
    simulink::Model cyclic = core::map_to_caam(cases::crane_model(), no_delays);
    EXPECT_TRUE(core::has_combinational_cycle(cyclic));
    EXPECT_THROW(sim::Simulator(cyclic, registry), sim::DeadlockError);

    EXPECT_GE(report.delays.inserted, 1u);
    EXPECT_NO_THROW(sim::Simulator(caam, registry));
}

TEST_F(CraneEndToEnd, LoadSettlesAtSetpoint) {
    sim::Simulator simulator(caam, registry);
    sim::SimResult result = simulator.run(600);
    const auto& pos = result.outputs.at("pos_f");
    ASSERT_EQ(pos.size(), 600u);
    // Converges to the 1.0 m setpoint and stays bounded on the way.
    EXPECT_NEAR(pos.back(), 1.0, 0.02);
    for (double p : pos) EXPECT_LT(std::abs(p), 3.0);
    // And it actually moved (not a degenerate all-zero run).
    EXPECT_LT(pos.front(), 0.1);
}

TEST_F(CraneEndToEnd, ChannelTrafficFlowsThroughSwFifos) {
    sim::Simulator simulator(caam, registry);
    sim::SimResult result = simulator.run(100);
    // 4 intra-CPU channels × 100 steps.
    EXPECT_EQ(result.channel_traffic.at("SWFIFO"), 400u);
    EXPECT_EQ(result.channel_traffic.count("GFIFO"), 0u);
}

TEST_F(CraneEndToEnd, MdlRoundTripPreservesBehaviour) {
    simulink::Model reloaded = simulink::parse_mdl(simulink::write_mdl(caam));
    sim::Simulator a(caam, registry);
    sim::SFunctionRegistry registry2;
    cases::register_crane_sfunctions(registry2);
    sim::Simulator b(reloaded, registry2);
    auto ra = a.run(200);
    auto rb = b.run(200);
    const auto& pa = ra.outputs.at("pos_f");
    const auto& pb = rb.outputs.at("pos_f");
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t k = 0; k < pa.size(); ++k)
        EXPECT_DOUBLE_EQ(pa[k], pb[k]) << "diverged at step " << k;
}

TEST_F(CraneEndToEnd, XmiIngestedModelProducesSameCaam) {
    uml::Model reloaded =
        uml::from_xmi_string(uml::to_xmi_string(cases::crane_model()));
    simulink::Model caam2 = core::map_to_caam(reloaded);
    EXPECT_EQ(simulink::write_mdl(caam2), simulink::write_mdl(caam));
}

// --- synthetic (§5.2) ----------------------------------------------------------------

class SyntheticEndToEnd : public ::testing::Test {
protected:
    uml::Model synthetic = cases::synthetic_model();
    core::MapperOptions options;
    core::MapperReport report;  // allocation points into `synthetic`
    simulink::Model caam{"unset"};

    void SetUp() override {
        options.auto_allocate = true;
        caam = core::map_to_caam(synthetic, options, &report);
    }
};

TEST_F(SyntheticEndToEnd, Fig8TopLevelStructure) {
    simulink::CaamStats stats = simulink::caam_stats(caam);
    EXPECT_EQ(stats.cpus, 4u);          // four CPU subsystems
    EXPECT_EQ(stats.threads, 12u);      // all twelve threads placed
    EXPECT_EQ(stats.inter_channels, 6u);  // cross-cluster edges of Fig. 7(b)
    EXPECT_EQ(stats.intra_channels, 8u);  // remaining edges stay on-CPU
    EXPECT_TRUE(simulink::validate_caam(caam).empty());
}

TEST_F(SyntheticEndToEnd, Fig7AllocationGrouping) {
    const core::Allocation& a = report.allocation;
    ASSERT_EQ(a.processor_count(), 4u);
    // Rebuild name → processor from the report (names are stable CPU0..3).
    auto group = [&](std::size_t p) {
        std::vector<std::string> names;
        for (const uml::ObjectInstance* t : a.threads_on(p))
            names.push_back(t->name());
        return names;
    };
    EXPECT_EQ(group(0),
              (std::vector<std::string>{"A", "B", "C", "D", "F", "J"}));
    EXPECT_EQ(group(1), (std::vector<std::string>{"E", "I"}));
    EXPECT_EQ(group(2), (std::vector<std::string>{"G", "M"}));
    EXPECT_EQ(group(3), (std::vector<std::string>{"H", "L"}));
}

TEST_F(SyntheticEndToEnd, ExecutesAndMovesDataAcrossCpus) {
    sim::SFunctionRegistry registry;
    cases::register_synthetic_sfunctions(registry);
    sim::Simulator simulator(caam, registry);
    sim::SimResult result = simulator.run(10);
    EXPECT_EQ(result.channel_traffic.at("GFIFO"), 60u);   // 6 channels × 10
    EXPECT_EQ(result.channel_traffic.at("SWFIFO"), 80u);  // 8 channels × 10
}

TEST_F(SyntheticEndToEnd, AcyclicSoNoBarriersNeeded) {
    EXPECT_EQ(report.delays.inserted, 0u);
    EXPECT_FALSE(core::has_combinational_cycle(caam));
}

TEST_F(SyntheticEndToEnd, GeneratedProgramsAreComplete) {
    codegen::GeneratedProgram c_program = codegen::generate_c_program(caam);
    EXPECT_EQ(c_program.channel_count, 14u);
    EXPECT_EQ(c_program.files.size(), 8u);  // rt, sfun.h/.c, 4 cpus, main
    codegen::CppProgram cpp = codegen::generate_cpp_threads(
        cases::synthetic_model(), 10);
    EXPECT_EQ(cpp.thread_count, 12u);
    EXPECT_EQ(cpp.queue_count, 14u);
}

// --- didactic (Fig. 3) full pipeline -----------------------------------------------

TEST(DidacticEndToEnd, MdlTextContainsFig3Vocabulary) {
    std::string mdl =
        simulink::write_mdl(core::map_to_caam(cases::didactic_model()));
    EXPECT_NE(mdl.find("Tag \"CPU-SS\""), std::string::npos);
    EXPECT_NE(mdl.find("Tag \"Thread-SS\""), std::string::npos);
    EXPECT_NE(mdl.find("\"SWFIFO\""), std::string::npos);
    EXPECT_NE(mdl.find("\"GFIFO\""), std::string::npos);
    EXPECT_NE(mdl.find("BlockType Product"), std::string::npos);
    EXPECT_NE(mdl.find("BlockType S-Function"), std::string::npos);
    // Round trip through the parser preserves the architecture.
    simulink::Model back = simulink::parse_mdl(mdl);
    simulink::CaamStats stats = simulink::caam_stats(back);
    EXPECT_EQ(stats.cpus, 2u);
    EXPECT_EQ(stats.threads, 3u);
    EXPECT_TRUE(simulink::validate_caam(back).empty());
}

TEST(DidacticEndToEnd, ExecutesWithRegisteredBehaviours) {
    simulink::Model caam = core::map_to_caam(cases::didactic_model());
    sim::SFunctionRegistry registry;
    registry.register_function(
        "calc", [](std::span<const double> in, std::span<double> out, double,
                   std::vector<double>&) { out[0] = in[0] + 1.0; });
    registry.register_function(
        "dec", [](std::span<const double> in, std::span<double> out, double,
                  std::vector<double>&) { out[0] = in[0] - 1.0; });
    sim::Simulator simulator(caam, registry);
    simulator.set_input("a", [](double) { return 3.0; });   // calc → 4
    simulator.set_input("x", [](double) { return 6.0; });   // dec → 5
    sim::SimResult result = simulator.run(2);
    // w = mult(r3, 2.0) where r3 = 4 * 5.
    EXPECT_DOUBLE_EQ(result.outputs.at("w").back(), 40.0);
}

TEST(DidacticEndToEnd, IllFormedModelRejected) {
    uml::ModelBuilder b("bad");
    b.thread("A");
    b.thread("B");
    b.seq("sd").message("A", "B", "notAConvention").arg("x");
    b.cpu("CPU1");
    b.deploy("A", "CPU1").deploy("B", "CPU1");
    EXPECT_THROW(core::map_to_caam(b.take()), std::runtime_error);
}

TEST(DidacticEndToEnd, EnforcementCanBeDisabled) {
    uml::ModelBuilder b("lax");
    b.thread("A");
    b.thread("B");
    b.seq("sd").message("A", "B", "notAConvention").arg("x");
    b.cpu("CPU1");
    b.deploy("A", "CPU1").deploy("B", "CPU1");
    core::MapperOptions options;
    options.enforce_wellformedness = false;
    core::MapperReport report;
    EXPECT_NO_THROW(core::map_to_caam(b.take(), options, &report));
    EXPECT_FALSE(report.warnings().empty());
}

// --- property sweep over random applications -----------------------------------------

class RandomApplicationProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomApplicationProperty, FullFlowHoldsInvariants) {
    uml::Model app = cases::random_application(GetParam(), 16, 4);
    ASSERT_TRUE(uml::only_warnings(uml::check(app)));

    core::MapperOptions options;
    options.auto_allocate = true;
    core::MapperReport report;
    simulink::Model caam = core::map_to_caam(app, options, &report);

    // I1: the result is a valid CAAM.
    auto problems = simulink::validate_caam(caam);
    EXPECT_TRUE(problems.empty()) << problems.front();
    // I2: no combinational cycles survive.
    EXPECT_FALSE(core::has_combinational_cycle(caam));
    // I3: every thread landed in exactly one CPU-SS.
    simulink::CaamStats stats = simulink::caam_stats(caam);
    EXPECT_EQ(stats.threads, 16u);
    EXPECT_GE(stats.cpus, 1u);
    // I4: channel counts match the (deduplicated) communication analysis.
    core::CommModel comm = core::analyze_communication(app);
    std::set<std::string> links;
    for (const core::Channel& c : comm.channels())
        links.insert(c.producer->name() + ">" + c.consumer->name() + ":" +
                     c.variable);
    EXPECT_EQ(stats.inter_channels + stats.intra_channels, links.size());
    // I5: the model executes (schedulable) and the mdl round-trips.
    sim::SFunctionRegistry registry;
    cases::register_synthetic_sfunctions(registry);
    sim::Simulator simulator(caam, registry);
    EXPECT_EQ(simulator.run(3).steps, 3u);
    simulink::Model back = simulink::parse_mdl(simulink::write_mdl(caam));
    EXPECT_EQ(simulink::caam_stats(back).total_blocks, stats.total_blocks);
    // I6: the generated C program covers every CPU.
    codegen::GeneratedProgram program = codegen::generate_c_program(caam);
    EXPECT_EQ(program.channel_count, links.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomApplicationProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
