#include "flow/strategy.hpp"

#include "codegen/caam_to_c.hpp"
#include "codegen/uml_to_cpp.hpp"
#include "flow/caam_passes.hpp"
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

/// The machine a control-flow strategy consumes (non-owning).
struct SourceMachine {
    const uml::StateMachine* machine = nullptr;
};

/// Read-only view of the shared mapping, seeded into each emitter's own
/// store so the emit pass is still a traced, fault-injectable pass.
struct SharedCaamRef {
    const SharedCaam* shared = nullptr;
};

/// The per-CPU C program emitted from the shared CAAM (caam-c).
struct CaamCProgram {
    codegen::GeneratedProgram program;
};

/// The Graphviz text emitted from the shared CAAM (caam-dot).
struct CaamDotText {
    std::string text;
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
struct ArtifactTraits<CaamCProgram> {
    static constexpr const char* name = "caam.c-program";
};
template <>
struct ArtifactTraits<CaamDotText> {
    static constexpr const char* name = "caam.dot";
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

void apply_resilience(PassManager& pm, const StrategyContext& context) {
    pm.set_retry_policy(context.retry);
    pm.set_pass_budget(context.pass_budget);
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
                        std::vector<std::string> notes;
                        std::string joined;
                        for (const std::string& b : e.cycle())
                            joined += (joined.empty() ? "" : ", ") + b;
                        notes.push_back("blocked block(s): " + joined);
                        for (const sim::CycleEdge& edge : e.edges())
                            notes.push_back("combinational dependency: " +
                                            edge.from + " -> " + edge.to);
                        notes.push_back(
                            "insert a temporal barrier (UnitDelay) on the "
                            "loop — §4.2.2");
                        ctx.diags().report(
                            diag::Severity::Error, diag::codes::kSimDeadlock,
                            "generated CAAM has a combinational cycle "
                            "through " +
                                std::to_string(e.cycle().size()) +
                                " block(s) — dataflow deadlock",
                            {}, std::move(notes));
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
void register_estimate_pass(PassManager& pm, std::string backend) {
    pm.add(Pass("sim.estimate",
                [backend = std::move(backend)](PassContext& ctx) {
                    try {
                        const uml::Model& model =
                            *ctx.in<SourceModel>().model;
                        const core::CommModel& comm =
                            ctx.in<core::CommModel>();
                        const core::Allocation& alloc =
                            ctx.in<core::Allocation>();
                        taskgraph::TaskGraph graph =
                            core::build_task_graph(model, comm);
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

/// Shared prelude of every caam-family emitter: resolve the dispatcher's
/// SharedCaam, or compute a private one for standalone strategy calls.
/// Returns nullptr (with `result.ok = false`) when the mapping failed —
/// the emitter then returns its result untouched and the dispatcher
/// quarantines it with the prep's diagnostics.
const SharedCaam* resolve_shared_caam(const StrategyContext& context,
                                      diag::DiagnosticEngine& engine,
                                      FlowTrace* trace, SharedCaam& local,
                                      StrategyResult& result) {
    const SharedCaam* shared = context.shared_caam;
    if (shared == nullptr) {
        local = compute_shared_caam(context, engine, trace);
        shared = &local;
    }
    if (!shared->ok) {
        result.ok = false;
        return nullptr;
    }
    return shared;
}

/// Dataflow branch: steps 2–4 ending in .mdl text. The mapping (steps
/// 2–3) lives in the SharedCaam; this strategy only runs the step-4
/// model-to-text pass, so the same analysis feeds caam-c and caam-dot
/// without being recomputed.
class CaamStrategy final : public Strategy {
public:
    std::string_view name() const override { return "simulink-caam"; }
    bool handles(const Subsystem& s) const override {
        return s.machine == nullptr && !s.threads.empty();
    }

    StrategyResult generate(const StrategyContext& context,
                            diag::DiagnosticEngine& engine,
                            FlowTrace* trace) override {
        StrategyResult result;
        result.strategy = std::string(name());
        result.subsystem = context.subsystem->name;

        SharedCaam local;
        const SharedCaam* shared =
            resolve_shared_caam(context, engine, trace, local, result);
        // The legacy report travels with the mdl result whether or not the
        // mapping succeeded — cmd_generate --report prints it either way.
        if (context.shared_caam)
            result.mapper_report = context.shared_caam->mapper_report;
        else
            result.mapper_report = local.mapper_report;
        if (!shared) return result;

        ArtifactStore store;
        store.put(SharedCaamRef{shared});
        PassManager pm("simulink-caam");
        apply_resilience(pm, context);
        pm.add(Pass("simulink.emit",
                    [](PassContext& ctx) {
                        const SharedCaam& s = *ctx.in<SharedCaamRef>().shared;
                        MdlText& mdl =
                            ctx.out(MdlText{simulink::write_mdl(s.caam)});
                        ctx.count("bytes", mdl.text.size());
                    })
               .reads<SharedCaamRef>()
               .writes<MdlText>());
        auto run = pm.run(store, engine, trace,
                          group_label(name(), *context.subsystem));
        result.ok = run.ok;
        if (MdlText* mdl = store.get<MdlText>())
            result.files.push_back(
                {transform::sanitize_identifier(context.model->name()) + ".mdl",
                 std::move(mdl->text)});
        return result;
    }
};

/// Dataflow branch: the same CAAM emitted as a per-CPU C99 program — the
/// multithread software-generation step, from the shared mapping.
class CaamCStrategy final : public Strategy {
public:
    std::string_view name() const override { return "caam-c"; }
    bool handles(const Subsystem& s) const override {
        return s.machine == nullptr && !s.threads.empty();
    }

    StrategyResult generate(const StrategyContext& context,
                            diag::DiagnosticEngine& engine,
                            FlowTrace* trace) override {
        StrategyResult result;
        result.strategy = std::string(name());
        result.subsystem = context.subsystem->name;

        SharedCaam local;
        const SharedCaam* shared =
            resolve_shared_caam(context, engine, trace, local, result);
        if (!shared) return result;

        ArtifactStore store;
        store.put(SharedCaamRef{shared});
        PassManager pm("caam-c");
        apply_resilience(pm, context);
        pm.add(Pass("caam.emit-c",
                    [](PassContext& ctx) {
                        const SharedCaam& s = *ctx.in<SharedCaamRef>().shared;
                        CaamCProgram& prog = ctx.out(CaamCProgram{
                            codegen::generate_c_program(s.caam)});
                        std::size_t bytes = 0;
                        for (const auto& [name, contents] : prog.program.files)
                            bytes += contents.size();
                        ctx.count("files", prog.program.files.size());
                        ctx.count("channels", prog.program.channel_count);
                        ctx.count("sfunctions", prog.program.sfunction_count);
                        ctx.count("bytes", bytes);
                    })
               .reads<SharedCaamRef>()
               .writes<CaamCProgram>());
        auto run = pm.run(store, engine, trace,
                          group_label(name(), *context.subsystem));
        result.ok = run.ok;
        if (CaamCProgram* prog = store.get<CaamCProgram>()) {
            const std::string prefix =
                transform::sanitize_identifier(context.model->name()) + "_";
            for (auto& [name, contents] : prog->program.files)
                result.files.push_back({prefix + name, std::move(contents)});
        }
        return result;
    }
};

/// Dataflow branch: the same CAAM exported as a Graphviz block diagram.
class CaamDotStrategy final : public Strategy {
public:
    std::string_view name() const override { return "caam-dot"; }
    bool handles(const Subsystem& s) const override {
        return s.machine == nullptr && !s.threads.empty();
    }

    StrategyResult generate(const StrategyContext& context,
                            diag::DiagnosticEngine& engine,
                            FlowTrace* trace) override {
        StrategyResult result;
        result.strategy = std::string(name());
        result.subsystem = context.subsystem->name;

        SharedCaam local;
        const SharedCaam* shared =
            resolve_shared_caam(context, engine, trace, local, result);
        if (!shared) return result;

        ArtifactStore store;
        store.put(SharedCaamRef{shared});
        PassManager pm("caam-dot");
        apply_resilience(pm, context);
        pm.add(Pass("caam.emit-dot",
                    [](PassContext& ctx) {
                        const SharedCaam& s = *ctx.in<SharedCaamRef>().shared;
                        CaamDotText& dot = ctx.out(
                            CaamDotText{simulink::to_dot(s.caam)});
                        ctx.count("bytes", dot.text.size());
                    })
               .reads<SharedCaamRef>()
               .writes<CaamDotText>());
        auto run = pm.run(store, engine, trace,
                          group_label(name(), *context.subsystem));
        result.ok = run.ok;
        if (CaamDotText* dot = store.get<CaamDotText>())
            result.files.push_back(
                {transform::sanitize_identifier(context.model->name()) +
                     "_caam.dot",
                 std::move(dot->text)});
        return result;
    }
};

/// Control branch: UML state machine → flat FSM → C header + source.
class FsmStrategy final : public Strategy {
public:
    std::string_view name() const override { return "fsm-c"; }
    bool handles(const Subsystem& s) const override {
        return s.machine != nullptr;
    }

    StrategyResult generate(const StrategyContext& context,
                            diag::DiagnosticEngine& engine,
                            FlowTrace* trace) override {
        StrategyResult result;
        result.strategy = std::string(name());
        result.subsystem = context.subsystem->name;

        ArtifactStore store;
        store.put(SourceMachine{context.subsystem->machine});
        PassManager pm("fsm-c");
        pm.set_internal_error_code(diag::codes::kFsmInvalid);
        apply_resilience(pm, context);

        pm.add(Pass("fsm.flatten",
                    [](PassContext& ctx) {
                        const uml::StateMachine& sm =
                            *ctx.in<SourceMachine>().machine;
                        fsm::Machine& machine = ctx.out(fsm::from_uml(sm));
                        ctx.count("states", machine.state_count());
                        ctx.count("transitions", machine.transitions().size());
                        // Gate on this machine's own problems, not the
                        // whole engine: under quarantine another
                        // subsystem's failure must not fail this one.
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
                        fsm::GeneratedC& code = ctx.out(
                            fsm::generate_c(ctx.in<fsm::Machine>()));
                        ctx.count("bytes",
                                  code.header.size() + code.source.size());
                    })
               .reads<fsm::Machine>()
               .writes<fsm::GeneratedC>());

        auto run = pm.run(store, engine, trace,
                          group_label(name(), *context.subsystem));
        result.ok = run.ok;
        if (fsm::GeneratedC* code = store.get<fsm::GeneratedC>()) {
            result.files.push_back({code->header_name, std::move(code->header)});
            result.files.push_back({code->source_name, std::move(code->source)});
        }
        return result;
    }
};

/// Fallback branch: multithreaded C++ from the same model.
class CppThreadsStrategy final : public Strategy {
public:
    std::string_view name() const override { return "cpp-threads"; }
    bool handles(const Subsystem& s) const override {
        return s.machine == nullptr && !s.threads.empty();
    }

    StrategyResult generate(const StrategyContext& context,
                            diag::DiagnosticEngine& engine,
                            FlowTrace* trace) override {
        StrategyResult result;
        result.strategy = std::string(name());
        result.subsystem = context.subsystem->name;

        ArtifactStore store;
        store.put(SourceModel{context.model});
        PassManager pm("cpp-threads");
        apply_resilience(pm, context);

        const std::size_t iterations = context.iterations;
        pm.add(Pass("codegen.threads",
                    [iterations](PassContext& ctx) {
                        const uml::Model& model = *ctx.in<SourceModel>().model;
                        codegen::CppProgram& program =
                            ctx.out(codegen::generate_cpp_threads(
                                model, iterations, ctx.diags()));
                        ctx.count("threads", program.thread_count);
                        ctx.count("queues", program.queue_count);
                        ctx.count("bytes", program.source.size());
                    })
               .reads<SourceModel>()
               .writes<codegen::CppProgram>());

        auto run = pm.run(store, engine, trace,
                          group_label(name(), *context.subsystem));
        result.ok = run.ok;
        if (codegen::CppProgram* program = store.get<codegen::CppProgram>())
            result.files.push_back(
                {program->file_name, std::move(program->source)});
        return result;
    }
};

/// §3 retargeting: the KPN mapping, emitted as a network summary.
class KpnStrategy final : public Strategy {
public:
    std::string_view name() const override { return "kpn"; }
    bool handles(const Subsystem& s) const override {
        return s.machine == nullptr && !s.threads.empty();
    }

    StrategyResult generate(const StrategyContext& context,
                            diag::DiagnosticEngine& engine,
                            FlowTrace* trace) override {
        StrategyResult result;
        result.strategy = std::string(name());
        result.subsystem = context.subsystem->name;

        ArtifactStore store;
        store.put(SourceModel{context.model});
        PassManager pm("kpn");
        apply_resilience(pm, context);

        pm.add(Pass("kpn.map",
                    [](PassContext& ctx) {
                        const uml::Model& model = *ctx.in<SourceModel>().model;
                        kpn::KpnMappingOutput& out =
                            ctx.out(kpn::map_to_kpn(model));
                        ctx.count("processes", out.network.processes().size());
                        ctx.count("channels", out.network.channels().size());
                        ctx.count("initial-tokens", out.initial_tokens_inserted);
                        for (const std::string& w : out.warnings)
                            ctx.diags().warning(diag::codes::kMapRule,
                                                "kpn: " + w);
                    })
               .reads<SourceModel>()
               .writes<kpn::KpnMappingOutput>());

        // Watchdogged dry-run of the mapped network — the cmd_kpn check as
        // a pass, with the firing budget configurable from `uhcg generate`
        // (0 keeps the legacy formula) and surfaced as a trace counter. A
        // read-blocked network fails the strategy (quarantining only the
        // KPN branch); a tripped watchdog is a transient diagnostic the
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
                                    : iterations *
                                              out.network.processes().size() *
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

        auto run = pm.run(store, engine, trace,
                          group_label(name(), *context.subsystem));
        result.ok = run.ok;
        if (kpn::KpnMappingOutput* out = store.get<kpn::KpnMappingOutput>()) {
            transform::CodeWriter w;
            w.line("# KPN '" + out->network.name() + "': " +
                   std::to_string(out->network.processes().size()) +
                   " processes, " +
                   std::to_string(out->network.channels().size()) +
                   " channels, " +
                   std::to_string(out->initial_tokens_inserted) +
                   " initial token(s)");
            for (const kpn::ChannelDecl& c : out->network.channels())
                w.line(c.producer->name() + " --" + c.variable + "--> " +
                       c.consumer->name() +
                       (c.initial_tokens ? "  [seeded]" : ""));
            result.files.push_back(
                {transform::sanitize_identifier(context.model->name()) +
                     "_kpn.txt",
                 w.str()});
        }
        return result;
    }
};

}  // namespace

SharedCaam compute_shared_caam(const StrategyContext& context,
                               diag::DiagnosticEngine& engine,
                               FlowTrace* trace) {
    SharedCaam shared;
    const std::size_t first_diag = engine.size();
    ArtifactStore store;
    store.put(SourceModel{context.model});
    PassManager pm("simulink-caam");
    apply_resilience(pm, context);
    register_caam_passes(pm, context.mapper, CaamPipelineMode::Engine);
    register_schedulability_probe(pm, context.sim_steps);
    register_estimate_pass(pm, context.sim_backend);
    auto run = pm.run(store, engine, trace,
                      group_label("simulink-caam", *context.subsystem));
    fill_mapper_report(shared.mapper_report, store, engine, first_diag);
    obs::counter("flow.caam_shared_computed").add(1);
    if (simulink::Model* caam = store.get<simulink::Model>()) {
        shared.caam = std::move(*caam);
        shared.ok = run.ok;
    }
    return shared;
}

StrategyRegistry& StrategyRegistry::add(std::unique_ptr<Strategy> strategy) {
    strategies_.push_back(std::move(strategy));
    return *this;
}

Strategy* StrategyRegistry::find(std::string_view name) {
    for (const auto& s : strategies_)
        if (s->name() == name) return s.get();
    return nullptr;
}

StrategyRegistry StrategyRegistry::with_builtins() {
    StrategyRegistry registry;
    registry.add(std::make_unique<CaamStrategy>())
        .add(std::make_unique<CaamCStrategy>())
        .add(std::make_unique<CaamDotStrategy>())
        .add(std::make_unique<FsmStrategy>())
        .add(std::make_unique<CppThreadsStrategy>())
        .add(std::make_unique<KpnStrategy>());
    return registry;
}

}  // namespace uhcg::flow
