#include "flow/strategy.hpp"

#include "codegen/caam_to_c.hpp"
#include "codegen/uml_to_cpp.hpp"
#include "flow/caam_passes.hpp"
#include "flow/generate.hpp"
#include "fsm/codegen.hpp"
#include "fsm/from_uml.hpp"
#include "fsm/machine.hpp"
#include "kpn/execute.hpp"
#include "kpn/from_uml.hpp"
#include "obs/obs.hpp"
#include "sim/backend.hpp"
#include "sim/engine.hpp"
#include "simulink/dot.hpp"
#include "simulink/mdl.hpp"
#include "transform/text.hpp"

namespace uhcg::flow {

/// The machine a control-flow row consumes (non-owning).
struct SourceMachine {
    const uml::StateMachine* machine = nullptr;
};

/// Read-only view of the shared mapping, seeded into each emitter's own
/// store so the emit pass is still a traced, fault-injectable pass.
struct SharedCaamRef {
    const SharedCaam* shared = nullptr;
};

/// What a caam-family row renders from the shared CAAM: its files, named
/// as they land in the output tree.
struct CaamText {
    std::vector<GeneratedFile> files;
};

template <>
struct ArtifactTraits<SourceMachine> {
    static constexpr const char* name = "uml.statemachine";
};
template <>
struct ArtifactTraits<SharedCaamRef> {
    static constexpr const char* name = "caam.shared";
};
template <>
struct ArtifactTraits<fsm::Machine> {
    static constexpr const char* name = "fsm.machine";
};
template <>
struct ArtifactTraits<fsm::GeneratedC> {
    static constexpr const char* name = "fsm.c";
};
template <>
struct ArtifactTraits<codegen::CppProgram> {
    static constexpr const char* name = "codegen.cpp-threads";
};
template <>
struct ArtifactTraits<kpn::KpnMappingOutput> {
    static constexpr const char* name = "kpn.network";
};

namespace {

std::string group_label(std::string_view strategy, const Subsystem& subsystem) {
    return std::string(strategy) + ":" + subsystem.name;
}

PassManager pass_manager(std::string_view name, const StrategyContext& context) {
    PassManager pm{std::string(name)};
    pm.set_retry_policy(context.retry);
    pm.set_pass_budget(context.pass_budget);
    return pm;
}

/// Schedulability probe over the emitted CAAM — the cmd_map check as a
/// pass. A combinational cycle becomes a structured sim.deadlock error and
/// fails the strategy; any other build failure (unregistered S-functions
/// in the empty probe registry) is expected and skips the probe. With
/// `sim_steps` > 0 a watchdogged smoke run follows, so the sim watchdog
/// budget is exercised (and surfaced in the trace) from `uhcg generate`.
void register_schedulability_probe(PassManager& pm, std::size_t sim_steps) {
    const std::size_t steps = sim_steps;
    pm.add(Pass("sim.schedulability",
                [steps](PassContext& ctx) {
                    const simulink::Model& caam = ctx.in<simulink::Model>();
                    sim::SFunctionRegistry probe;
                    try {
                        sim::Simulator check(caam, probe);
                        ctx.count("schedule-blocks", check.schedule().size());
                        if (steps) {
                            sim::WatchdogBudget budget;
                            budget.max_steps = steps;
                            ctx.count("budget-steps", steps);
                            sim::SimResult r =
                                check.run(steps, ctx.diags(), budget);
                            ctx.count("sim-steps", r.steps);
                            if (r.budget_exhausted) ctx.fail();
                        }
                    } catch (const sim::DeadlockError& e) {
                        sim::report_deadlock(e, ctx.diags());
                        ctx.fail();
                    } catch (const std::exception&) {
                        // S-functions the empty probe registry cannot bind;
                        // not a mapping defect.
                        ctx.count("probe-skipped");
                    }
                })
           .reads<simulink::Model>()
           .runs_after("caam.delays")
           .runs_after("caam.validate"));
}

/// Advisory cost estimate of the chosen allocation on the configured
/// simulation backend (sim/backend.hpp) — the §4.2.3 estimate surfaced as
/// trace counters from `uhcg generate`, without failing the strategy: a
/// model the cost model cannot price (no threads, detached subsystem) just
/// counts `estimate-skipped`, and so does an unknown backend name.
void register_estimate_pass(PassManager& pm, std::string backend,
                            const taskgraph::TaskGraph& graph) {
    pm.add(Pass("sim.estimate",
                [backend = std::move(backend), &graph](PassContext& ctx) {
                    try {
                        const uml::Model& model =
                            *ctx.in<SourceModel>().model;
                        const core::Allocation& alloc =
                            ctx.in<core::Allocation>();
                        auto threads = model.threads();
                        std::vector<int> assignment;
                        assignment.reserve(threads.size());
                        for (const uml::ObjectInstance* t : threads)
                            assignment.push_back(static_cast<int>(
                                alloc.processor_of(*t)));
                        sim::MpsocResult estimate = sim::simulate_backend(
                            graph, taskgraph::Clustering::from_assignment(
                                       std::move(assignment)),
                            {}, backend);
                        ctx.count("estimate-cpus", estimate.cpu_busy.size());
                        ctx.count("estimate-makespan",
                                  static_cast<std::size_t>(estimate.makespan));
                        ctx.count("estimate-bus-transfers",
                                  estimate.bus_transfers);
                    } catch (const std::exception&) {
                        // Advisory only: an unpriceable model is not a
                        // generation defect.
                        ctx.count("estimate-skipped");
                    }
                })
           .reads<SourceModel>()
           .reads<core::CommModel>()
           .reads<core::Allocation>()
           .runs_after("caam.validate"));
}

// --- the caam family: one emitter, three renderings -------------------------

/// Renders the shared CAAM into files named after `base`, the model's
/// sanitized name.
using CaamRender = std::vector<GeneratedFile> (*)(const simulink::Model& caam,
                                                  const std::string& base,
                                                  PassContext& ctx);

/// The one caam-family emitter: pass `pass` renders the shared CAAM with
/// `render`; its output carries the row's own artifact name in the trace.
void add_caam_emit(PassManager& pm, const StrategyContext& context,
                   const char* pass, const char* artifact, CaamRender render) {
    Pass emit(pass, [render, base = transform::sanitize_identifier(
                                 context.model->name())](PassContext& ctx) {
        const SharedCaam& shared = *ctx.in<SharedCaamRef>().shared;
        ctx.out(CaamText{render(shared.caam, base, ctx)});
    });
    emit.reads<SharedCaamRef>();
    emit.outputs.push_back({typeid(CaamText), artifact});
    pm.add(std::move(emit));
}

/// Step 4: the .mdl text.
std::vector<GeneratedFile> render_mdl(const simulink::Model& caam,
                                      const std::string& base,
                                      PassContext& ctx) {
    std::string mdl = simulink::write_mdl(caam);
    ctx.count("bytes", mdl.size());
    return {{base + ".mdl", std::move(mdl)}};
}

/// The multithread software-generation step: a per-CPU C99 program.
std::vector<GeneratedFile> render_c(const simulink::Model& caam,
                                    const std::string& base,
                                    PassContext& ctx) {
    codegen::GeneratedProgram program =
        codegen::generate_c_program(caam, base + "_");
    std::vector<GeneratedFile> files;
    std::size_t bytes = 0;
    for (auto& [name, contents] : program.files) {
        bytes += contents.size();
        files.push_back({name, std::move(contents)});
    }
    ctx.count("files", files.size());
    ctx.count("channels", program.channel_count);
    ctx.count("sfunctions", program.sfunction_count);
    ctx.count("bytes", bytes);
    return files;
}

/// The Graphviz block diagram.
std::vector<GeneratedFile> render_dot(const simulink::Model& caam,
                                      const std::string& base,
                                      PassContext& ctx) {
    std::string dot = simulink::to_dot(caam);
    ctx.count("bytes", dot.size());
    return {{base + "_caam.dot", std::move(dot)}};
}

std::vector<GeneratedFile> caam_files(ArtifactStore& store, const std::string&) {
    if (CaamText* text = store.get<CaamText>()) return std::move(text->files);
    return {};
}

// --- fsm-c: UML state machine → flat FSM → C header + source ----------------

void add_fsm_passes(PassManager& pm, const StrategyContext&) {
    pm.set_internal_error_code(diag::codes::kFsmInvalid);
    pm.add(Pass("fsm.flatten",
                [](PassContext& ctx) {
                    const uml::StateMachine& sm =
                        *ctx.in<SourceMachine>().machine;
                    fsm::Machine& machine = ctx.out(fsm::from_uml(sm));
                    ctx.count("states", machine.state_count());
                    ctx.count("transitions", machine.transitions().size());
                    // Gate on this machine's own problems, not the whole
                    // engine: under quarantine another subsystem's failure
                    // must not fail this one.
                    auto problems = machine.check();
                    for (const std::string& p : problems)
                        ctx.diags().error(diag::codes::kFsmInvalid,
                                          machine.name() + ": " + p);
                    if (!problems.empty()) ctx.fail();
                })
           .reads<SourceMachine>()
           .writes<fsm::Machine>());
    pm.add(Pass("fsm.emit-c",
                [](PassContext& ctx) {
                    fsm::GeneratedC& code =
                        ctx.out(fsm::generate_c(ctx.in<fsm::Machine>()));
                    ctx.count("bytes", code.header.size() + code.source.size());
                })
           .reads<fsm::Machine>()
           .writes<fsm::GeneratedC>());
}

std::vector<GeneratedFile> fsm_files(ArtifactStore& store, const std::string&) {
    std::vector<GeneratedFile> files;
    if (fsm::GeneratedC* code = store.get<fsm::GeneratedC>()) {
        files.push_back({code->header_name, std::move(code->header)});
        files.push_back({code->source_name, std::move(code->source)});
    }
    return files;
}

// --- cpp-threads: multithreaded C++ from the same model ----------------------

void add_threads_pass(PassManager& pm, const StrategyContext& context) {
    const std::size_t iterations = context.iterations;
    const core::CommModel& comm = context.analysis->comm;
    pm.add(Pass("codegen.threads",
                [iterations, &comm](PassContext& ctx) {
                    const uml::Model& model = *ctx.in<SourceModel>().model;
                    codegen::CppProgram& program =
                        ctx.out(codegen::generate_cpp_threads(
                            model, comm, iterations, ctx.diags()));
                    ctx.count("threads", program.thread_count);
                    ctx.count("queues", program.queue_count);
                    ctx.count("bytes", program.source.size());
                })
           .reads<SourceModel>()
           .writes<codegen::CppProgram>());
}

std::vector<GeneratedFile> threads_files(ArtifactStore& store,
                                         const std::string&) {
    std::vector<GeneratedFile> files;
    if (codegen::CppProgram* program = store.get<codegen::CppProgram>())
        files.push_back({program->file_name, std::move(program->source)});
    return files;
}

// --- kpn: §3 retargeting, emitted as a network summary -----------------------

void add_kpn_passes(PassManager& pm, const StrategyContext& context) {
    const core::CommModel& comm = context.analysis->comm;
    pm.add(Pass("kpn.map",
                [&comm](PassContext& ctx) {
                    const uml::Model& model = *ctx.in<SourceModel>().model;
                    kpn::KpnMappingOutput& out =
                        ctx.out(kpn::map_to_kpn(model, comm));
                    ctx.count("processes", out.network.processes().size());
                    ctx.count("channels", out.network.channels().size());
                    ctx.count("initial-tokens", out.initial_tokens_inserted);
                    for (const std::string& w : out.warnings)
                        ctx.diags().warning(diag::codes::kMapRule, "kpn: " + w);
                })
           .reads<SourceModel>()
           .writes<kpn::KpnMappingOutput>());

    // Watchdogged dry-run of the mapped network — the cmd_kpn check as a
    // pass, with the firing budget configurable from `uhcg generate` (0
    // keeps the legacy formula) and surfaced as a trace counter. A
    // read-blocked network fails the row (quarantining only the KPN
    // branch); a tripped watchdog is a transient diagnostic the
    // RetryPolicy may re-run.
    const std::size_t iterations = context.iterations;
    const std::size_t firings = context.kpn_firings;
    pm.add(Pass("kpn.validate",
                [iterations, firings](PassContext& ctx) {
                    const kpn::KpnMappingOutput& out =
                        ctx.in<kpn::KpnMappingOutput>();
                    kpn::KernelRegistry registry;
                    for (const auto& p : out.network.processes())
                        registry.register_kernel(
                            p->name(), [](auto, auto outputs, auto&) {
                                for (double& v : outputs) v = 0.0;
                            });
                    kpn::Executor exec(out.network, registry);
                    kpn::WatchdogBudget budget;
                    budget.max_firings =
                        firings ? firings
                                : iterations * out.network.processes().size() *
                                          4 +
                                      1000;
                    ctx.count("budget-firings", budget.max_firings);
                    kpn::KpnResult r =
                        exec.run(iterations, ctx.diags(), budget);
                    ctx.count("rounds", r.rounds);
                    ctx.count("firings", r.firings);
                    ctx.count("max-queue-depth", r.max_queue_depth);
                    if (r.deadlocked || r.budget_exhausted) ctx.fail();
                })
           .reads<kpn::KpnMappingOutput>());
}

std::vector<GeneratedFile> kpn_files(ArtifactStore& store,
                                     const std::string& base) {
    std::vector<GeneratedFile> files;
    if (kpn::KpnMappingOutput* out = store.get<kpn::KpnMappingOutput>()) {
        transform::CodeWriter w;
        w.line("# KPN '" + out->network.name() + "': " +
               std::to_string(out->network.processes().size()) +
               " processes, " +
               std::to_string(out->network.channels().size()) +
               " channels, " + std::to_string(out->initial_tokens_inserted) +
               " initial token(s)");
        for (const kpn::ChannelDecl& c : out->network.channels())
            w.line(c.producer->name() + " --" + c.variable + "--> " +
                   c.consumer->name() + (c.initial_tokens ? "  [seeded]" : ""));
        files.push_back({base + "_kpn.txt", w.take()});
    }
    return files;
}

constexpr Branch kBranches[] = {
    {.name = "simulink-caam",
     .reads_shared_caam = true,
     .add_passes =
         [](PassManager& pm, const StrategyContext& context) {
             add_caam_emit(pm, context, "simulink.emit", "simulink.mdl",
                           render_mdl);
         },
     .files = caam_files},
    {.name = "caam-c",
     .reads_shared_caam = true,
     .enabled_by = &GenerateOptions::caam_c,
     .add_passes =
         [](PassManager& pm, const StrategyContext& context) {
             add_caam_emit(pm, context, "caam.emit-c", "caam.c-program",
                           render_c);
         },
     .files = caam_files},
    {.name = "caam-dot",
     .reads_shared_caam = true,
     .enabled_by = &GenerateOptions::caam_dot,
     .add_passes =
         [](PassManager& pm, const StrategyContext& context) {
             add_caam_emit(pm, context, "caam.emit-dot", "caam.dot",
                           render_dot);
         },
     .files = caam_files},
    {.name = "fsm-c",
     .machine = true,
     .add_passes = add_fsm_passes,
     .files = fsm_files},
    {.name = "cpp-threads", .add_passes = add_threads_pass, .files = threads_files},
    {.name = "kpn",
     .enabled_by = &GenerateOptions::with_kpn,
     .add_passes = add_kpn_passes,
     .files = kpn_files},
};

}  // namespace

std::span<const Branch> branches() { return kBranches; }

StrategyResult run_strategy(const Branch& branch,
                            const StrategyContext& context,
                            diag::DiagnosticEngine& engine, FlowTrace* trace) {
    StrategyResult result;
    result.strategy = std::string(branch.name);
    result.subsystem = context.subsystem->name;
    if (branch.reads_shared_caam) {
        // The mapping report travels with the result whether or not the
        // mapping succeeded — cmd_generate --report prints it either way.
        result.mapper_report = context.shared_caam->mapper_report;
        result.ok = context.shared_caam->ok;
        if (!result.ok) return result;
    }

    ArtifactStore store;
    store.put(SourceModel{context.model});
    if (context.subsystem->machine)
        store.put(SourceMachine{context.subsystem->machine});
    if (context.shared_caam) store.put(SharedCaamRef{context.shared_caam});
    PassManager pm = pass_manager(branch.name, context);
    branch.add_passes(pm, context);
    result.ok = pm.run(store, engine, trace,
                       group_label(branch.name, *context.subsystem))
                    .ok;
    result.files = branch.files(
        store, transform::sanitize_identifier(context.model->name()));
    return result;
}

SharedCaam compute_shared_caam(const StrategyContext& context,
                               diag::DiagnosticEngine& engine,
                               FlowTrace* trace, ArtifactStore& scratch) {
    SharedCaam shared;
    PassManager pm = pass_manager("simulink-caam", context);
    auto caam = run_caam_pipeline(
        pm, *context.model, context.mapper, engine, shared.mapper_report, trace,
        group_label("simulink-caam", *context.subsystem),
        [&context](PassManager& p) {
            register_schedulability_probe(p, context.sim_steps);
            register_estimate_pass(p, context.sim_backend,
                                   context.analysis->task_graph);
        },
        context.analysis, &scratch);
    obs::counter("flow.caam_shared_computed").add(1);
    if (caam) {
        shared.caam = std::move(*caam);
        shared.ok = true;
    }
    return shared;
}

}  // namespace uhcg::flow
