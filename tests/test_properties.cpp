// Cross-cutting property tests: serialization round trips, temporal-
// barrier invariants on randomized models, and interchange-format
// equivalences — the "same model in, same artifacts out" guarantees the
// deterministic flow advertises.
#include <gtest/gtest.h>

#include <random>

#include "cases/cases.hpp"
#include "core/delays.hpp"
#include "core/mapping.hpp"
#include "core/pipeline.hpp"
#include "model/ecore_io.hpp"
#include "sim/engine.hpp"
#include "simulink/caam.hpp"
#include "simulink/generic.hpp"
#include "simulink/mdl.hpp"
#include "uml/generic.hpp"
#include "uml/xmi.hpp"

namespace {

using namespace uhcg;
using simulink::Block;
using simulink::BlockType;

/// Random flat-ish Simulink model: a few subsystems, arithmetic blocks and
/// random (legal) wiring. Possibly cyclic on purpose.
simulink::Model random_simulink_model(std::uint64_t seed, bool allow_cycles) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> type_dist(0, 4);
    std::uniform_real_distribution<double> value(0.5, 9.5);

    simulink::Model m("rand" + std::to_string(seed));
    std::vector<Block*> pool;

    auto fill_system = [&](simulink::System& sys, int blocks) {
        std::vector<Block*> local;
        for (int i = 0; i < blocks; ++i) {
            BlockType t = BlockType::Gain;
            switch (type_dist(rng)) {
                case 0: t = BlockType::Gain; break;
                case 1: t = BlockType::Sum; break;
                case 2: t = BlockType::Product; break;
                case 3: t = BlockType::Constant; break;
                case 4: t = BlockType::UnitDelay; break;
            }
            Block& b = sys.add_block("b" + std::to_string(i), t);
            if (t == BlockType::Gain)
                b.set_parameter("Gain", std::to_string(value(rng)));
            if (t == BlockType::Constant)
                b.set_parameter("Value", std::to_string(value(rng)));
            local.push_back(&b);
        }
        // Wire every input from a random producer. Forward-only when
        // cycles are not allowed.
        for (std::size_t i = 0; i < local.size(); ++i) {
            Block* b = local[i];
            for (int port = 1; port <= b->input_count(); ++port) {
                std::size_t limit = allow_cycles ? local.size() : i;
                if (limit == 0) {
                    // Need a source: add a constant.
                    Block& c = sys.add_block(
                        "c" + std::to_string(i) + "_" + std::to_string(port),
                        BlockType::Constant);
                    c.set_parameter("Value", "1");
                    sys.add_line({&c, 1}, {b, port});
                    continue;
                }
                std::uniform_int_distribution<std::size_t> pick(0, limit - 1);
                Block* src = local[pick(rng)];
                if (src == b || src->output_count() == 0) {
                    Block& c = sys.add_block(
                        "c" + std::to_string(i) + "_" + std::to_string(port),
                        BlockType::Constant);
                    c.set_parameter("Value", "2");
                    sys.add_line({&c, 1}, {b, port});
                } else {
                    sys.add_line({src, 1}, {b, port});
                }
            }
        }
    };

    fill_system(m.root(), 8);
    Block& sub = m.root().add_subsystem("S");
    fill_system(*sub.system(), 6);
    return m;
}

class MdlRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MdlRoundTrip, WriteParseWriteIsStable) {
    simulink::Model m = random_simulink_model(GetParam(), true);
    std::string first = simulink::write_mdl(m);
    simulink::Model back = simulink::parse_mdl(first);
    EXPECT_EQ(simulink::write_mdl(back), first);
    EXPECT_EQ(back.root().total_blocks(), m.root().total_blocks());
    EXPECT_EQ(back.root().total_lines(), m.root().total_lines());
}

TEST_P(MdlRoundTrip, GenericRoundTripIsStable) {
    simulink::Model m = random_simulink_model(GetParam(), true);
    simulink::Model back = simulink::from_generic(simulink::to_generic(m));
    EXPECT_EQ(simulink::write_mdl(back), simulink::write_mdl(m));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MdlRoundTrip,
                         ::testing::Values(3, 7, 11, 19, 23, 31, 43, 59));

class BarrierProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BarrierProperty, BreaksAllCyclesAndStaysSchedulable) {
    simulink::Model m = random_simulink_model(GetParam(), true);
    core::DelayReport report = core::insert_temporal_barriers(m);
    // P1: no combinational cycle survives.
    EXPECT_FALSE(core::has_combinational_cycle(m));
    // P2: idempotence.
    EXPECT_EQ(core::insert_temporal_barriers(m).inserted, 0u);
    // P3: the execution engine can schedule the result.
    sim::SFunctionRegistry registry;
    EXPECT_NO_THROW(sim::Simulator(m, registry));
    // P4: acyclic models are untouched.
    simulink::Model dag = random_simulink_model(GetParam(), false);
    EXPECT_EQ(core::insert_temporal_barriers(dag).inserted, 0u);
    (void)report;
}

TEST_P(BarrierProperty, SimulationRunsAfterBarriers) {
    simulink::Model m = random_simulink_model(GetParam(), true);
    core::insert_temporal_barriers(m);
    sim::SFunctionRegistry registry;
    sim::Simulator simulator(m, registry);
    sim::SimResult r = simulator.run(20);
    EXPECT_EQ(r.steps, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BarrierProperty,
                         ::testing::Values(2, 5, 13, 29, 37, 53));

// --- interchange equivalences ----------------------------------------------------

TEST(Interchange, EcoreIntermediateRoundTripsThroughXml) {
    // Fig. 2 step 3 receives the m2m result "using the E-core format":
    // serializing the intermediate CAAM to XML and reloading it must not
    // change the final artifact.
    uml::Model didactic = cases::didactic_model();
    core::CommModel comm = core::analyze_communication(didactic);
    core::Allocation alloc = core::allocation_from_deployment(didactic);
    core::MappingOutput mapped = core::run_mapping(didactic, comm, alloc);

    std::string ecore_xml = model::to_xml_string(mapped.caam);
    model::ObjectModel reloaded =
        model::from_xml_string(simulink::caam_metamodel(), ecore_xml);

    simulink::Model direct = simulink::from_generic(mapped.caam);
    simulink::Model via_xml = simulink::from_generic(reloaded);
    core::infer_channels(direct, comm);
    core::infer_channels(via_xml, comm);
    EXPECT_EQ(simulink::write_mdl(via_xml), simulink::write_mdl(direct));
}

TEST(Interchange, UmlGenericRoundTripPreservesXmi) {
    uml::Model app = cases::random_application(77, 10, 3);
    uml::Model back = uml::from_generic(uml::to_generic(app));
    EXPECT_EQ(uml::to_xmi_string(back), uml::to_xmi_string(app));
}

class XmiPipelineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmiPipelineEquivalence, ReloadedModelGeneratesIdenticalArtifacts) {
    uml::Model app = cases::random_application(GetParam(), 12, 4);
    uml::Model reloaded = uml::from_xmi_string(uml::to_xmi_string(app));
    core::MapperOptions options;
    options.auto_allocate = true;
    EXPECT_EQ(simulink::write_mdl(core::map_to_caam(reloaded, options)),
              simulink::write_mdl(core::map_to_caam(app, options)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmiPipelineEquivalence,
                         ::testing::Values(111, 222, 333, 444));

TEST(Determinism, RepeatedMappingIsByteIdentical) {
    uml::Model crane = cases::crane_model();
    std::string a = simulink::write_mdl(core::map_to_caam(crane));
    std::string b = simulink::write_mdl(core::map_to_caam(crane));
    EXPECT_EQ(a, b);
}

}  // namespace
