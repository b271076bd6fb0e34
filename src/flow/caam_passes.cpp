#include "flow/caam_passes.hpp"

#include <stdexcept>

#include "model/ecore_io.hpp"
#include "simulink/caam.hpp"
#include "simulink/generic.hpp"
#include "uml/wellformed.hpp"

namespace uhcg::flow {

namespace {

constexpr const char* kEcoreDump = "core.dump-ecore";

void register_caam_passes(PassManager& pm, const core::MapperOptions& options,
                          const ModelAnalysis* analysis) {
    pm.set_internal_error_code(diag::codes::kMapInternal);

    // Gate: the conventions of §4.1 must hold or the mapping mis-wires.
    // All issues are collected before deciding whether to abort, so a model
    // with three independent defects yields three diagnostics in one run.
    pm.add(Pass("uml.wellformed",
                [options](PassContext& ctx) {
                    const uml::Model& model = *ctx.in<SourceModel>().model;
                    auto issues = uml::check(model);
                    ctx.count("issues", issues.size());
                    for (const uml::Issue& i : issues) {
                        std::string code = "uml.";
                        code += (i.rule && i.rule[0]) ? i.rule : "wellformed";
                        ctx.diags().report(i.severity == uml::Severity::Error
                                               ? diag::Severity::Error
                                               : diag::Severity::Warning,
                                           std::move(code),
                                           "[" + i.where + "] " + i.message);
                    }
                    bool gate = options.enforce_wellformedness &&
                                !uml::only_warnings(issues);
                    ctx.out(WellformedReport{std::move(issues)});
                    if (gate) ctx.fail();
                })
           .reads<SourceModel>()
           .writes<WellformedReport>());

    // Analyses feeding the mapping.
    pm.add(Pass("core.comm",
                [analysis](PassContext& ctx) {
                    const uml::Model& model = *ctx.in<SourceModel>().model;
                    const core::CommModel& comm =
                        analysis ? ctx.lend(analysis->comm)
                                 : ctx.out(core::analyze_communication(model));
                    ctx.count("channels", comm.channels().size());
                    ctx.count("io-accesses", comm.io_accesses().size());
                })
           .reads<SourceModel>()
           .writes<core::CommModel>()
           .runs_after("uml.wellformed"));

    pm.add(Pass("core.allocate",
                [options, analysis](PassContext& ctx) {
                    const uml::Model& model = *ctx.in<SourceModel>().model;
                    const core::CommModel& comm = ctx.in<core::CommModel>();
                    auto allocate = [&] {
                        if (!options.auto_allocate)
                            return core::allocation_from_deployment(model);
                        if (analysis)
                            return core::auto_allocate(model, analysis->task_graph,
                                                       options.max_processors);
                        return core::auto_allocate(model, comm, options.max_processors);
                    };
                    core::Allocation& alloc = ctx.out(allocate());
                    ctx.count("processors", alloc.processor_count());
                })
           .reads<SourceModel>()
           .reads<core::CommModel>()
           .writes<core::Allocation>());

    // Step 2: model-to-model transformation.
    pm.add(Pass("core.mapping",
                [](PassContext& ctx) {
                    const uml::Model& model = *ctx.in<SourceModel>().model;
                    core::MappingOutput& mapped =
                        ctx.out(core::run_mapping(model, ctx.in<core::CommModel>(),
                                                  ctx.in<core::Allocation>()));
                    for (const auto& [rule, count] : mapped.stats.applications)
                        ctx.count("rule." + rule, count);
                    ctx.count("trace-links", mapped.stats.trace_links);
                    for (const std::string& w : mapped.warnings)
                        ctx.diags().warning(diag::codes::kMapRule, w);
                })
           .reads<SourceModel>()
           .reads<core::CommModel>()
           .reads<core::Allocation>()
           .writes<core::MappingOutput>());

    // Lift the generic CAAM into the typed API for optimization.
    pm.add(Pass("caam.lift",
                [](PassContext& ctx) {
                    simulink::Model& caam = ctx.out(
                        simulink::from_generic(ctx.in<core::MappingOutput>().caam));
                    ctx.count("blocks", simulink::caam_stats(caam).total_blocks);
                })
           .reads<core::MappingOutput>()
           .writes<simulink::Model>()
           .runs_after(kEcoreDump));

    // Step 3: optimizations (both mutate the CAAM in place, hence barriers).
    pm.add(Pass("caam.channels",
                [](PassContext& ctx) {
                    core::ChannelReport& report = ctx.out(core::infer_channels(
                        ctx.inout<simulink::Model>(), ctx.in<core::CommModel>()));
                    ctx.count("intra", report.intra_channels);
                    ctx.count("inter", report.inter_channels);
                    ctx.count("system-ports",
                              report.system_inputs + report.system_outputs);
                    for (const std::string& w : report.warnings)
                        ctx.diags().warning(diag::codes::kMapChannels, w);
                })
           .reads<simulink::Model>()
           .reads<core::CommModel>()
           .writes<core::ChannelReport>());
    if (options.insert_delays) {
        pm.add(Pass("caam.delays",
                    [](PassContext& ctx) {
                        core::DelayReport& report = ctx.out(
                            core::insert_temporal_barriers(
                                ctx.inout<simulink::Model>()));
                        ctx.count("barriers", report.inserted);
                    })
               .reads<simulink::Model>()
               .writes<core::DelayReport>()
               .runs_after("caam.channels"));
    }

    // Conformance of the produced CAAM before handing it onward.
    pm.add(Pass("caam.validate",
                [options](PassContext& ctx) {
                    const simulink::Model& caam = ctx.in<simulink::Model>();
                    auto problems = simulink::validate_caam(caam);
                    ctx.count("problems", problems.size());
                    for (const std::string& p : problems)
                        ctx.diags().error(diag::codes::kCaamInvalid, p);
                    // Gate on this CAAM's own problems, not the whole
                    // engine: under quarantine another subsystem's failure
                    // must not fail this one.
                    if (!problems.empty() && options.enforce_wellformedness)
                        ctx.fail();
                })
           .reads<simulink::Model>()
           .runs_after("caam.channels")
           .runs_after("caam.delays"));
}

/// Assembles the MapperReport from the store plus the diagnostics `engine`
/// recorded since `first_diagnostic` (the run's slice).
void fill_mapper_report(core::MapperReport& report, const ArtifactStore& store,
                        const diag::DiagnosticEngine& engine,
                        std::size_t first_diagnostic) {
    if (const core::MappingOutput* mapped = store.get<core::MappingOutput>())
        report.rule_stats = mapped->stats;
    if (const core::Allocation* alloc = store.get<core::Allocation>())
        report.allocation = *alloc;
    if (const core::ChannelReport* channels = store.get<core::ChannelReport>())
        report.channels = *channels;
    if (const core::DelayReport* delays = store.get<core::DelayReport>())
        report.delays = *delays;
    const auto& diags = engine.diagnostics();
    report.diagnostics.assign(diags.begin() + first_diagnostic, diags.end());
}

}  // namespace

std::optional<simulink::Model> run_caam_pipeline(
    PassManager& pm, const uml::Model& model,
    const core::MapperOptions& options, diag::DiagnosticEngine& engine,
    core::MapperReport& report, FlowTrace* trace, const std::string& group,
    const std::function<void(PassManager&)>& extend,
    const ModelAnalysis* analysis, ArtifactStore* scratch) {
    register_caam_passes(pm, options, analysis);
    if (extend) extend(pm);
    const std::size_t first_diag = engine.size();
    ArtifactStore local;
    ArtifactStore& store = scratch ? *scratch : local;
    store.put(SourceModel{&model});
    auto run = pm.run(store, engine, trace, group);
    fill_mapper_report(report, store, engine, first_diag);
    simulink::Model* caam = store.get<simulink::Model>();
    if (!run.ok || !caam) return std::nullopt;
    return std::move(*caam);
}

void add_ecore_dump(PassManager& pm, std::string path, bool* written) {
    pm.add(Pass(kEcoreDump,
                [path = std::move(path), written](PassContext& ctx) {
                    model::save_file(ctx.in<core::MappingOutput>().caam, path);
                    *written = true;
                })
           .reads<core::MappingOutput>());
}

}  // namespace uhcg::flow

namespace uhcg::core {

std::vector<std::string> MapperReport::warnings() const {
    std::vector<std::string> out;
    for (const diag::Diagnostic& d : diagnostics) {
        if (d.severity != diag::Severity::Warning) continue;
        if (d.code.rfind("uml.", 0) == 0)
            out.push_back("uml: " + d.message);
        else
            out.push_back(d.message);
    }
    return out;
}

std::optional<simulink::Model> map_to_caam(const uml::Model& model,
                                           const MapperOptions& options,
                                           diag::DiagnosticEngine& engine,
                                           MapperReport* report) {
    MapperReport local;
    flow::PassManager pm("core.pipeline");
    return flow::run_caam_pipeline(pm, model, options, engine,
                                   report ? *report : local);
}

simulink::Model map_to_caam(const uml::Model& model, const MapperOptions& options,
                            MapperReport* report) {
    diag::DiagnosticEngine engine;
    auto caam = map_to_caam(model, options, engine, report);
    if (!caam) throw std::runtime_error(engine.render_text());
    return std::move(*caam);
}

}  // namespace uhcg::core
