// bench_synthetic_caam — Fig. 8: the CAAM top level generated for the
// synthetic example with automatic allocation.
//
// Paper claim: "four CPU subsystems communicate through inter-SS channels";
// channel inference runs automatically; the deployment diagram is not
// needed.
#include "bench_common.hpp"
#include "cases/cases.hpp"
#include "core/pipeline.hpp"
#include "sim/engine.hpp"
#include "simulink/caam.hpp"
#include "simulink/generic.hpp"
#include "simulink/mdl.hpp"

namespace {

using namespace uhcg;

void print_reproduction() {
    bench::banner("Fig. 8 — synthetic CAAM top level",
                  "4 CPU subsystems communicating through inter-SS (GFIFO) "
                  "channels, generated without a deployment diagram");
    uml::Model syn = cases::synthetic_model();
    core::MapperOptions options;
    options.auto_allocate = true;
    core::MapperReport report;
    simulink::Model caam = core::map_to_caam(syn, options, &report);
    simulink::CaamStats s = simulink::caam_stats(caam);
    bench::row("CPU subsystems at top level", s.cpus);
    for (const simulink::Block* cpu :
         simulink::cpu_subsystems(const_cast<const simulink::Model&>(caam))) {
        std::string threads;
        for (const simulink::Block* t : simulink::thread_subsystems(*cpu))
            threads += t->name() + " ";
        bench::row("  " + cpu->name(), threads);
    }
    bench::row("inter-SS channels (GFIFO)", s.inter_channels);
    bench::row("intra-SS channels (SWFIFO)", s.intra_channels);
    bench::row("validation problems", simulink::validate_caam(caam).size());

    sim::SFunctionRegistry registry;
    cases::register_synthetic_sfunctions(registry);
    sim::Simulator simulator(caam, registry);
    sim::SimResult r = simulator.run(100);
    bench::row("executed steps", r.steps);
    bench::row("GFIFO transfers (100 steps)", r.channel_traffic.at("GFIFO"));
    bench::row("SWFIFO transfers (100 steps)", r.channel_traffic.at("SWFIFO"));
}

void BM_SyntheticFullFlow(benchmark::State& state) {
    uml::Model syn = cases::synthetic_model();
    core::MapperOptions options;
    options.auto_allocate = true;
    for (auto _ : state) {
        simulink::Model caam = core::map_to_caam(syn, options);
        benchmark::DoNotOptimize(&caam);
    }
}
BENCHMARK(BM_SyntheticFullFlow);

void BM_SyntheticChannelInference(benchmark::State& state) {
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    // The channel-less input of §4.2.1: the lifted step-2 CAAM.
    core::MappingOutput mapped =
        core::run_mapping(syn, comm, core::auto_allocate(syn, comm));
    for (auto _ : state) {
        state.PauseTiming();
        simulink::Model caam = simulink::from_generic(mapped.caam);
        state.ResumeTiming();
        core::ChannelReport report = core::infer_channels(caam, comm);
        benchmark::DoNotOptimize(report.inter_channels);
    }
}
BENCHMARK(BM_SyntheticChannelInference);

void BM_SyntheticSimulation(benchmark::State& state) {
    uml::Model syn = cases::synthetic_model();
    core::MapperOptions options;
    options.auto_allocate = true;
    simulink::Model caam = core::map_to_caam(syn, options);
    sim::SFunctionRegistry registry;
    cases::register_synthetic_sfunctions(registry);
    sim::Simulator simulator(caam, registry);
    for (auto _ : state) {
        sim::SimResult r = simulator.run(100);
        benchmark::DoNotOptimize(r.steps);
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SyntheticSimulation);

}  // namespace

UHCG_BENCH_MAIN(print_reproduction)
