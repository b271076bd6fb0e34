// bench_pipeline — Fig. 2: the four-step mapping flow, timed per step and
// swept over model sizes.
//
// Paper claim: the flow is (1) UML construction, (2) model-to-model
// transformation against the Simulink meta-model, (3) optimization
// (channels, barriers, allocation), (4) model-to-text (.mdl). This bench
// measures each step and reports the rule-application statistics of the
// transformation engine for growing applications.
#include "bench_common.hpp"
#include "cases/cases.hpp"
#include "core/mapping.hpp"
#include "core/optimize.hpp"
#include "core/pipeline.hpp"
#include "simulink/generic.hpp"
#include "simulink/mdl.hpp"
#include "uml/generic.hpp"
#include "uml/xmi.hpp"

namespace {

using namespace uhcg;

void print_reproduction() {
    bench::banner("Fig. 2 — the mapping flow, step by step",
                  "model-to-model transformation with rule tracing, then "
                  "optimization, then model-to-text");
    for (std::size_t threads : {8u, 16u, 32u, 64u}) {
        uml::Model app = cases::random_application(7, threads, 4);
        core::CommModel comm = core::analyze_communication(app);
        core::Allocation alloc = core::auto_allocate(app, comm);
        core::MappingOutput mapped = core::run_mapping(app, comm, alloc);
        simulink::Model caam = simulink::from_generic(mapped.caam);
        core::ChannelReport channels = core::infer_channels(caam, comm);
        std::string mdl = simulink::write_mdl(caam);
        std::printf(
            "threads=%-3zu  rules fired: Model2Caam=%zu Thread2ThreadSS=%zu "
            "Interaction2Layer=%zu trace-links=%zu  CAAM objects=%zu  "
            "channels=%zu+%zu  mdl=%zu B\n",
            threads, mapped.stats.applications.at("Model2Caam"),
            mapped.stats.applications.at("Thread2ThreadSS"),
            mapped.stats.applications.at("Interaction2Layer"),
            mapped.stats.trace_links, mapped.stats.target_objects,
            channels.intra_channels, channels.inter_channels, mdl.size());
    }
}

void BM_Step1_UmlConstruction(benchmark::State& state) {
    auto threads = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        uml::Model app = cases::random_application(7, threads, 4);
        benchmark::DoNotOptimize(&app);
    }
}
BENCHMARK(BM_Step1_UmlConstruction)->Arg(8)->Arg(32)->Arg(128);

void BM_Step1b_XmiIngestion(benchmark::State& state) {
    uml::Model app =
        cases::random_application(7, static_cast<std::size_t>(state.range(0)), 4);
    std::string xmi = uml::to_xmi_string(app);
    for (auto _ : state) {
        uml::Model loaded = uml::from_xmi_string(xmi);
        benchmark::DoNotOptimize(&loaded);
    }
    state.SetBytesProcessed(state.iterations() * xmi.size());
}
BENCHMARK(BM_Step1b_XmiIngestion)->Arg(8)->Arg(32)->Arg(128);

void BM_Step2_ModelToModel(benchmark::State& state) {
    uml::Model app =
        cases::random_application(7, static_cast<std::size_t>(state.range(0)), 4);
    core::CommModel comm = core::analyze_communication(app);
    core::Allocation alloc = core::auto_allocate(app, comm);
    for (auto _ : state) {
        core::MappingOutput mapped = core::run_mapping(app, comm, alloc);
        benchmark::DoNotOptimize(mapped.stats.trace_links);
    }
}
BENCHMARK(BM_Step2_ModelToModel)->Arg(8)->Arg(32)->Arg(128);

void BM_Step3_Optimization(benchmark::State& state) {
    uml::Model app =
        cases::random_application(7, static_cast<std::size_t>(state.range(0)), 4);
    core::CommModel comm = core::analyze_communication(app);
    core::Allocation alloc = core::auto_allocate(app, comm);
    core::MappingOutput mapped = core::run_mapping(app, comm, alloc);
    for (auto _ : state) {
        state.PauseTiming();
        simulink::Model caam = simulink::from_generic(mapped.caam);
        state.ResumeTiming();
        core::ChannelReport channels = core::infer_channels(caam, comm);
        core::DelayReport delays = core::insert_temporal_barriers(caam);
        benchmark::DoNotOptimize(channels.inter_channels + delays.inserted);
    }
}
BENCHMARK(BM_Step3_Optimization)->Arg(8)->Arg(32)->Arg(128);

void BM_Step4_ModelToText(benchmark::State& state) {
    uml::Model app =
        cases::random_application(7, static_cast<std::size_t>(state.range(0)), 4);
    core::MapperOptions options;
    options.auto_allocate = true;
    simulink::Model caam = core::map_to_caam(app, options);
    for (auto _ : state) {
        std::string mdl = simulink::write_mdl(caam);
        benchmark::DoNotOptimize(mdl.data());
    }
}
BENCHMARK(BM_Step4_ModelToText)->Arg(8)->Arg(32)->Arg(128);

void BM_FullPipeline(benchmark::State& state) {
    uml::Model app =
        cases::random_application(7, static_cast<std::size_t>(state.range(0)), 4);
    core::MapperOptions options;
    options.auto_allocate = true;
    for (auto _ : state) {
        std::string mdl = simulink::write_mdl(core::map_to_caam(app, options));
        benchmark::DoNotOptimize(mdl.data());
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullPipeline)->RangeMultiplier(2)->Range(8, 128)->Complexity();

}  // namespace

UHCG_BENCH_MAIN(print_reproduction)
