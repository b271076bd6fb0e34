#include "flow/generate.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__linux__)
#include <sys/resource.h>
#include <time.h>
#endif

#include <algorithm>
#include <optional>
#include <sstream>

#include "core/allocation.hpp"
#include "core/hash.hpp"
#include "core/parallel.hpp"
#include "flow/caam_passes.hpp"
#include "flow/checkpoint.hpp"
#include "obs/obs.hpp"

namespace uhcg::flow {

template <>
struct ArtifactTraits<PartitionReport> {
    static constexpr const char* name = "flow.partition-report";
};

namespace {

std::string join(const std::vector<std::string>& names) {
    std::string out;
    for (const std::string& n : names) out += (out.empty() ? "" : "+") + n;
    return out;
}

/// Options fingerprint for checkpoint keys: every knob that changes what a
/// strategy emits. Computed after the auto-allocation fallback so the key
/// reflects the options actually in force.
std::string options_fingerprint(const GenerateOptions& options) {
    std::ostringstream out;
    out << "auto=" << options.mapper.auto_allocate
        << "|maxp=" << options.mapper.max_processors
        << "|delay=" << options.mapper.insert_delays
        << "|wf=" << options.mapper.enforce_wellformedness
        << "|iters=" << options.iterations
        << "|caamc=" << options.caam_c
        << "|caamdot=" << options.caam_dot
        << "|kpnf=" << options.resilience.kpn_firings
        << "|sims=" << options.resilience.sim_steps
        << "|simbk=" << options.sim_backend;
    return out.str();
}

/// Slice the Error+ diagnostics reported since `first` into a quarantine
/// record: the first message becomes the reason, codes dedupe in order.
QuarantineRecord quarantine_record(const std::string& strategy,
                                   const std::string& subsystem,
                                   const diag::DiagnosticEngine& engine,
                                   std::size_t first) {
    QuarantineRecord record;
    record.strategy = strategy;
    record.subsystem = subsystem;
    for (std::size_t i = first; i < engine.size(); ++i) {
        const diag::Diagnostic& d = engine.diagnostics()[i];
        if (d.severity < diag::Severity::Error) continue;
        if (record.reason.empty()) record.reason = d.message;
        if (std::find(record.error_codes.begin(), record.error_codes.end(),
                      d.code) == record.error_codes.end())
            record.error_codes.push_back(d.code);
    }
    if (record.reason.empty()) record.reason = "strategy failed";
    return record;
}

/// Hands the heap pages a run freed back to the OS when it goes out of
/// scope. glibc gives every pool worker an arena of its own and keeps an
/// arena's freed pages resident, so without it the process would keep the
/// largest mix of units each worker ever happened to run — a footprint
/// that depends on scheduling, not on the model.
struct ReleaseFreedHeap {
    ReleaseFreedHeap() = default;
    ReleaseFreedHeap(const ReleaseFreedHeap&) = delete;
    ReleaseFreedHeap& operator=(const ReleaseFreedHeap&) = delete;
    ~ReleaseFreedHeap() {
#if defined(__GLIBC__)
        malloc_trim(0);
#endif
    }
};

struct ThreadCost {
    std::uint64_t cpu_us = 0;
    std::uint64_t minor_faults = 0;
};

/// CPU time (µs) and minor page faults of the calling thread so far;
/// nullopt off Linux.
std::optional<ThreadCost> thread_cost() {
#if defined(__linux__)
    ThreadCost cost;
    timespec cpu{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu) == 0)
        cost.cpu_us = static_cast<std::uint64_t>(cpu.tv_sec) * 1000000u +
                      static_cast<std::uint64_t>(cpu.tv_nsec) / 1000u;
    rusage usage{};
    if (getrusage(RUSAGE_THREAD, &usage) == 0)
        cost.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
    return cost;
#else
    return std::nullopt;
#endif
}

/// Adds what its thread spends while it lives to `flow.unit.<name>.cpu_us`
/// and `flow.unit.<name>.minor_faults`, once. Set beside a unit's wall
/// time, CPU time tells contention (it inflates with wall time) from
/// waiting (it does not).
class UnitCost {
public:
    explicit UnitCost(std::string name)
        : name_(std::move(name)), start_(thread_cost()) {}
    UnitCost(const UnitCost&) = delete;
    UnitCost& operator=(const UnitCost&) = delete;
    ~UnitCost() {
        if (!start_) return;
        const ThreadCost end = thread_cost().value_or(*start_);
        const std::string prefix = "flow.unit." + name_;
        obs::counter(prefix + ".cpu_us").add(end.cpu_us - start_->cpu_us);
        obs::counter(prefix + ".minor_faults")
            .add(end.minor_faults - start_->minor_faults);
    }

private:
    std::string name_;
    std::optional<ThreadCost> start_;
};

}  // namespace

std::string_view to_string(GenerateStatus status) {
    switch (status) {
        case GenerateStatus::Ok: return "ok";
        case GenerateStatus::Partial: return "partial";
        case GenerateStatus::Failed: return "failed";
    }
    return "failed";
}

GenerateResult generate(const uml::Model& model, const GenerateOptions& options_in,
                        diag::DiagnosticEngine& engine, FlowTrace* trace) {
    // Declared first, so it runs after every unit's state is freed.
    const ReleaseFreedHeap release_freed_heap;
    obs::ObsSpan generate_span("flow.generate");
    GenerateResult result;
    if (trace) trace->set_model(model.name());

    // One-shot surface: when the model ships no deployment diagram the
    // only viable allocation is the §4.2.3 automatic one — switch to it
    // instead of failing the CAAM branch.
    GenerateOptions options = options_in;
    if (!options.mapper.auto_allocate && model.deployment_or_null() == nullptr) {
        options.mapper.auto_allocate = true;
        engine.note(diag::codes::kFlowStrategy,
                    "model '" + model.name() +
                        "' has no deployment diagram; using automatic "
                        "allocation (§4.2.3)");
    }

    // Stage 1: the partitioner, run as a pass so it lands in the trace. It
    // also builds the analyses every unit reads, once per generate.
    ArtifactStore store;
    store.put(SourceModel{&model});
    std::optional<ModelAnalysis> analysis;
    PassManager pm("flow");
    pm.set_retry_policy(options.resilience.retry);
    pm.set_pass_budget(options.resilience.pass_budget);
    pm.add(Pass("flow.partition",
                [&analysis](PassContext& ctx) {
                    const uml::Model& m = *ctx.in<SourceModel>().model;
                    core::CommModel comm = core::analyze_communication(m);
                    PartitionReport& report = ctx.out(partition(m, comm));
                    // Mine the task graph here too: its shape lands in the
                    // trace for every run, including deployment-diagram
                    // models that never take the auto-allocation path.
                    taskgraph::TaskGraph graph = core::build_task_graph(m, comm);
                    ctx.count("taskgraph-tasks", graph.task_count());
                    ctx.count("taskgraph-edges", graph.edge_count());
                    analysis.emplace(std::move(comm), std::move(graph));
                    ctx.count("subsystems", report.subsystems.size());
                    ctx.count("feedback-cycles", report.feedback_cycles);
                    for (const Subsystem& s : report.subsystems)
                        if (s.kind == SubsystemKind::ControlFlow)
                            ctx.count("control-flow");
                        else
                            ctx.count("dataflow");
                })
           .reads<SourceModel>()
           .writes<PartitionReport>());
    auto run = pm.run(store, engine, trace, "partition");
    if (!run.ok || !store.has<PartitionReport>() || !analysis) {
        result.status = GenerateStatus::Failed;
        return result;
    }
    result.partitions = std::move(store.require<PartitionReport>());

    // Checkpointing needs the model's serialized bytes for a content key.
    const ResilienceOptions& res = options.resilience;
    const bool checkpointing =
        !res.checkpoint_dir.empty() && !res.model_bytes.empty();
    std::unique_ptr<CheckpointStore> checkpoints;
    if (checkpointing)
        checkpoints = std::make_unique<CheckpointStore>(res.checkpoint_dir);
    const std::string options_fp = options_fingerprint(options);
    const std::uint64_t model_hash =
        checkpointing ? core::fnv1a(res.model_bytes) : 0;

    // Stage 2: dispatch each (strategy × subsystem) unit, optionally
    // across the core::parallel pool (--gen-jobs). The unit list is fixed
    // up front in canonical order (subsystem order × wanted order);
    // workers fill per-unit slots through private DiagnosticEngines and
    // FlowTraces, and a serial fold afterwards merges everything back in
    // canonical order — so the output tree, manifest and diagnostic
    // stream are byte-identical for every job count. Each dataflow
    // subsystem's CAAM mapping is computed once (compute_shared_caam) and
    // consumed read-only by all three caam-family emitters.
    constexpr std::size_t kNoPrep = static_cast<std::size_t>(-1);
    struct PrepState {
        const Subsystem* subsystem = nullptr;
        SharedCaam shared;
        /// The prep's intermediate artifacts; freed beside the emitters.
        ArtifactStore scratch;
        diag::DiagnosticEngine engine;
        FlowTrace trace;
    };
    struct UnitState {
        const Subsystem* subsystem = nullptr;
        std::string name;
        const Branch* branch = nullptr;
        std::string key;
        /// Index into `preps` for live caam-family units; kNoPrep else.
        std::size_t prep = static_cast<std::size_t>(-1);
        bool cached = false;
        StrategyResult sr;
        diag::DiagnosticEngine engine;
        FlowTrace trace;
    };

    std::vector<PrepState> preps;
    std::vector<UnitState> units;

    // Serial planning pass: the branch table filtered per subsystem,
    // checkpoint replay, shared-prep assignment, trace partitions.
    // Everything order-sensitive that is cheap stays on the calling thread.
    for (const Subsystem& subsystem : result.partitions.subsystems) {
        std::vector<std::string> dispatched;
        std::size_t prep_index = kNoPrep;
        for (const Branch& branch : branches()) {
            if (branch.machine != (subsystem.machine != nullptr)) continue;
            if (branch.enabled_by && !(options.*branch.enabled_by)) continue;
            const std::string name(branch.name);
            dispatched.push_back(name);

            UnitState unit;
            unit.subsystem = &subsystem;
            unit.name = name;
            unit.branch = &branch;
            if (checkpointing)
                unit.key = CheckpointStore::key(model_hash, options_fp, name,
                                                subsystem.name);
            if (checkpointing && res.resume) {
                StrategyResult cached;
                if (checkpoints->load(unit.key, cached)) {
                    cached.cached = true;
                    unit.cached = true;
                    unit.sr = std::move(cached);
                    unit.engine.note(diag::codes::kFlowCheckpoint,
                                     "strategy '" + name +
                                         "' for subsystem '" +
                                         subsystem.name +
                                         "' replayed from checkpoint");
                }
            }
            if (!unit.cached && branch.reads_shared_caam) {
                if (prep_index == kNoPrep) {
                    prep_index = preps.size();
                    preps.emplace_back();
                    preps.back().subsystem = &subsystem;
                }
                unit.prep = prep_index;
            }
            units.push_back(std::move(unit));
        }

        if (trace) {
            TracePartition tp;
            tp.name = subsystem.name;
            tp.kind = std::string(to_string(subsystem.kind));
            tp.strategy = join(dispatched);
            if (subsystem.machine) {
                tp.units.push_back(subsystem.machine->name());
            } else {
                for (const uml::ObjectInstance* t : subsystem.threads)
                    tp.units.push_back(t->name());
            }
            trace->add_partition(std::move(tp));
        }
    }

    auto make_context = [&](const Subsystem& subsystem) {
        StrategyContext context;
        context.model = &model;
        context.subsystem = &subsystem;
        context.mapper = options.mapper;
        context.iterations = options.iterations;
        context.retry = res.retry;
        context.pass_budget = res.pass_budget;
        context.kpn_firings = res.kpn_firings;
        context.sim_steps = res.sim_steps;
        context.sim_backend = options.sim_backend;
        context.analysis = &*analysis;
        return context;
    };

    auto run_unit = [&](UnitState& unit) {
        StrategyContext context = make_context(*unit.subsystem);
        if (unit.prep != kNoPrep)
            context.shared_caam = &preps[unit.prep].shared;
        obs::ObsSpan unit_span("flow.strategy:" + unit.name, "flow");
        const UnitCost cost(unit.name);
        FlowTrace* unit_trace = trace ? &unit.trace : nullptr;
        try {
            unit.sr = run_strategy(*unit.branch, context, unit.engine,
                                   unit_trace);
        } catch (const std::exception& e) {
            // Strategy code outside any pass body escaped; contain it to
            // this unit like any other failure.
            unit.engine.report(diag::Severity::Fatal,
                               diag::codes::kFlowQuarantine,
                               "strategy '" + unit.name +
                                   "' raised: " + e.what());
            unit.sr.strategy = unit.name;
            unit.sr.subsystem = unit.subsystem->name;
            unit.sr.ok = false;
            unit.sr.files.clear();
        }
    };

    // Wave 1: every shared CAAM prep plus every live non-caam unit.
    // Wave 2: the caam-family emitters, which read the preps built in
    // wave 1, and the freeing of each prep's intermediates. The fault
    // guard keeps worker exceptions inside their unit, so parallel_for's
    // own rethrow path stays cold.
    std::vector<std::size_t> emitters;
    std::vector<std::size_t> independents;
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (units[i].cached) continue;
        (units[i].prep != kNoPrep ? emitters : independents).push_back(i);
    }
    const std::size_t jobs = options.gen_jobs;
    core::parallel_for(
        preps.size() + independents.size(), jobs, [&](std::size_t i) {
            if (i < preps.size()) {
                PrepState& prep = preps[i];
                const UnitCost cost("caam-prep");
                StrategyContext context = make_context(*prep.subsystem);
                prep.shared = compute_shared_caam(
                    context, prep.engine, trace ? &prep.trace : nullptr,
                    prep.scratch);
            } else {
                run_unit(units[independents[i - preps.size()]]);
            }
        });
    // Freeing a prep's intermediates (its generic CAAM) takes about as
    // long as an emitter, and nothing reads them any more: it runs as one
    // more job of wave 2 instead of delaying the end of wave 1.
    core::parallel_for(emitters.size() + preps.size(), jobs, [&](std::size_t i) {
        if (i < emitters.size())
            run_unit(units[emitters[i]]);
        else
            preps[i - emitters.size()].scratch = ArtifactStore();
    });

    // Serial fold in canonical unit order: a subsystem's prep merges just
    // before its first live caam unit, then each unit's diagnostics,
    // trace entries, outputs, quarantine records and checkpoints.
    std::vector<bool> prep_merged(preps.size(), false);
    for (UnitState& unit : units) {
        if (unit.prep != kNoPrep && !prep_merged[unit.prep]) {
            prep_merged[unit.prep] = true;
            PrepState& prep = preps[unit.prep];
            engine.merge(prep.engine);
            if (trace)
                for (const PassTraceEntry& entry : prep.trace.entries())
                    trace->add(entry);
        }
        engine.merge(unit.engine);
        if (trace)
            for (const PassTraceEntry& entry : unit.trace.entries())
                trace->add(entry);

        StrategyResult sr = std::move(unit.sr);
        if (!unit.cached) {
            if (!sr.ok) {
                obs::counter("flow.quarantined").add(1);
                // A unit downed by its shared prep reported nothing of its
                // own — its quarantine record slices the prep's engine so
                // the reason and codes name the actual mapping failure.
                const bool prep_failed = unit.prep != kNoPrep &&
                                         !preps[unit.prep].shared.ok;
                const diag::DiagnosticEngine& source =
                    (prep_failed && !unit.engine.has_errors())
                        ? preps[unit.prep].engine
                        : unit.engine;
                result.quarantined.push_back(quarantine_record(
                    unit.name, unit.subsystem->name, source, 0));
                engine.warning(diag::codes::kFlowQuarantine,
                               "strategy '" + unit.name +
                                   "' quarantined for subsystem '" +
                                   unit.subsystem->name +
                                   "'; other subsystems continue");
                // A failed unit never ships files or a checkpoint.
                sr.files.clear();
                if (checkpointing) checkpoints->drop(unit.key);
            } else if (checkpointing) {
                checkpoints->save(unit.key, sr);
            }
        }

        if (trace)
            for (const GeneratedFile& f : sr.files)
                trace->add_output({f.name, unit.name, f.contents.size()});
        result.results.push_back(std::move(sr));
    }

    const bool any_ok = std::any_of(
        result.results.begin(), result.results.end(),
        [](const StrategyResult& r) { return r.ok; });
    if (result.quarantined.empty())
        result.status = GenerateStatus::Ok;
    else if (any_ok)
        result.status = GenerateStatus::Partial;
    else
        result.status = GenerateStatus::Failed;
    return result;
}

std::string to_manifest_json(const GenerateResult& result) {
    std::ostringstream out;
    out << "{\n  \"schema\": \"uhcg-flow-manifest-v1\",\n";
    out << "  \"status\": \"" << to_string(result.status) << "\",\n";
    out << "  \"strategies\": [";
    for (std::size_t i = 0; i < result.results.size(); ++i) {
        const StrategyResult& r = result.results[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"strategy\": \"" << diag::json_escape(r.strategy)
            << "\", \"subsystem\": \"" << diag::json_escape(r.subsystem)
            << "\", \"ok\": " << (r.ok ? "true" : "false")
            << ", \"cached\": " << (r.cached ? "true" : "false")
            << ", \"files\": [";
        for (std::size_t f = 0; f < r.files.size(); ++f) {
            if (f) out << ", ";
            out << "{\"name\": \"" << diag::json_escape(r.files[f].name)
                << "\", \"bytes\": " << r.files[f].contents.size() << '}';
        }
        out << "]}";
    }
    out << (result.results.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"quarantined\": [";
    for (std::size_t i = 0; i < result.quarantined.size(); ++i) {
        const QuarantineRecord& q = result.quarantined[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"strategy\": \"" << diag::json_escape(q.strategy)
            << "\", \"subsystem\": \"" << diag::json_escape(q.subsystem)
            << "\", \"reason\": \"" << diag::json_escape(q.reason)
            << "\", \"error_codes\": [";
        for (std::size_t c = 0; c < q.error_codes.size(); ++c) {
            if (c) out << ", ";
            out << '"' << diag::json_escape(q.error_codes[c]) << '"';
        }
        out << "]}";
    }
    out << (result.quarantined.empty() ? "]" : "\n  ]") << "\n}";
    return out.str();
}

}  // namespace uhcg::flow
