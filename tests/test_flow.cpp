// Tests for the flow layer: artifact store type safety, deterministic
// pass scheduling, the subsystem partitioner, the strategy dispatcher and
// the uhcg-flow-trace-v1 JSON document.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "campaign/corpus.hpp"
#include "cases/cases.hpp"
#include "core/hash.hpp"
#include "core/pipeline.hpp"
#include "flow/caam_passes.hpp"
#include "flow/generate.hpp"
#include "flow/partition.hpp"
#include "flow/pass.hpp"
#include "obs/obs.hpp"
#include "simulink/caam.hpp"
#include "simulink/mdl.hpp"
#include "uml/builder.hpp"

namespace {

using namespace uhcg;

struct Alpha {
    int value = 0;
};
struct Beta {
    std::string text;
};
struct Gamma {
    int value = 0;
};

}  // namespace

namespace uhcg::flow {
template <>
struct ArtifactTraits<Alpha> {
    static constexpr const char* name = "test.alpha";
};
template <>
struct ArtifactTraits<Beta> {
    static constexpr const char* name = "test.beta";
};
template <>
struct ArtifactTraits<Gamma> {
    static constexpr const char* name = "test.gamma";
};
}  // namespace uhcg::flow

namespace {

// --- artifact store -----------------------------------------------------------------

TEST(ArtifactStore, TypedPutGetRoundTrips) {
    flow::ArtifactStore store;
    EXPECT_FALSE(store.has<Alpha>());
    store.put(Alpha{41});
    ASSERT_TRUE(store.has<Alpha>());
    EXPECT_EQ(store.get<Alpha>()->value, 41);
    EXPECT_EQ(store.require<Alpha>().value, 41);
    // Different type, same shape: no cross-talk.
    EXPECT_FALSE(store.has<Gamma>());
    EXPECT_EQ(store.get<Gamma>(), nullptr);
}

TEST(ArtifactStore, PutReplacesInPlace) {
    flow::ArtifactStore store;
    store.put(Alpha{1});
    store.put(Alpha{2});
    EXPECT_EQ(store.require<Alpha>().value, 2);
    EXPECT_EQ(store.size(), 1u);
}

TEST(ArtifactStore, RequireMissingThrowsFlowError) {
    flow::ArtifactStore store;
    EXPECT_THROW(store.require<Alpha>(), flow::FlowError);
    try {
        store.require<Alpha>();
    } catch (const flow::FlowError& e) {
        EXPECT_NE(std::string(e.what()).find("test.alpha"), std::string::npos);
    }
}

TEST(ArtifactStore, LentArtifactsAreSharedReadOnly) {
    const Alpha owned{7};
    flow::ArtifactStore store;
    const Alpha& lent = store.lend(owned);
    EXPECT_EQ(&lent, &owned);
    const flow::ArtifactStore& view = store;
    EXPECT_EQ(&view.require<Alpha>(), &owned);  // no copy
    EXPECT_THROW(store.require<Alpha>(), flow::FlowError);
    store.put(Alpha{8});  // an owned value replaces the loan
    EXPECT_EQ(store.require<Alpha>().value, 8);
    EXPECT_EQ(owned.value, 7);
}

TEST(ArtifactStore, NamesUseArtifactTraits) {
    flow::ArtifactStore store;
    store.put(Alpha{1});
    store.put(Beta{"b"});
    std::vector<std::string> names = store.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "test.alpha"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "test.beta"), names.end());
}

// --- scheduling ---------------------------------------------------------------------

flow::Pass make_pass(const char* name) {
    return flow::Pass(name, [](flow::PassContext&) {});
}

TEST(PassManager, ScheduleFollowsArtifactDependencies) {
    flow::PassManager pm("t");
    // Registered consumer-first: the schedule must still run producers first.
    pm.add(make_pass("consume").reads<Beta>());
    pm.add(make_pass("mid").reads<Alpha>().writes<Beta>());
    pm.add(make_pass("produce").writes<Alpha>());
    std::vector<std::string> order;
    for (const flow::Pass* p : pm.schedule()) order.push_back(p->name);
    EXPECT_EQ(order,
              (std::vector<std::string>{"produce", "mid", "consume"}));
}

TEST(PassManager, ScheduleIsDeterministicAcrossRuns) {
    auto build = [] {
        flow::PassManager pm("t");
        pm.add(make_pass("c").reads<Alpha>());
        pm.add(make_pass("a").writes<Alpha>());
        pm.add(make_pass("b").reads<Alpha>());
        pm.add(make_pass("d"));
        return pm;
    };
    flow::PassManager first = build();
    std::vector<std::string> baseline;
    for (const flow::Pass* p : first.schedule()) baseline.push_back(p->name);
    // Independent passes tie-break by registration order.
    EXPECT_EQ(baseline, (std::vector<std::string>{"a", "c", "b", "d"}));
    for (int i = 0; i < 10; ++i) {
        flow::PassManager pm = build();
        std::vector<std::string> order;
        for (const flow::Pass* p : pm.schedule()) order.push_back(p->name);
        EXPECT_EQ(order, baseline);
    }
}

TEST(PassManager, ExplicitAfterEdgeOrders) {
    flow::PassManager pm("t");
    pm.add(make_pass("late").runs_after("early"));
    pm.add(make_pass("early"));
    std::vector<std::string> order;
    for (const flow::Pass* p : pm.schedule()) order.push_back(p->name);
    EXPECT_EQ(order, (std::vector<std::string>{"early", "late"}));
}

TEST(PassManager, DuplicateProducerIsAnError) {
    flow::PassManager pm("t");
    pm.add(make_pass("one").writes<Alpha>());
    pm.add(make_pass("two").writes<Alpha>());
    EXPECT_THROW(pm.schedule(), flow::FlowError);
}

TEST(PassManager, DependencyCycleIsAnError) {
    flow::PassManager pm("t");
    pm.add(make_pass("a").runs_after("b"));
    pm.add(make_pass("b").runs_after("a"));
    EXPECT_THROW(pm.schedule(), flow::FlowError);
}

TEST(PassManager, MissingSeedBecomesDiagnosticNotThrow) {
    flow::PassManager pm("t");
    pm.add(make_pass("needs-alpha").reads<Alpha>());
    flow::ArtifactStore store;  // Alpha not seeded
    diag::DiagnosticEngine engine;
    auto result = pm.run(store, engine);
    EXPECT_FALSE(result.ok);
    ASSERT_TRUE(engine.has_errors());
    EXPECT_EQ(engine.diagnostics()[0].code, diag::codes::kFlowMissingArtifact);
}

TEST(PassManager, TrapsExceptionsAsFatalDiagnostics) {
    flow::PassManager pm("t");
    pm.add(flow::Pass("boom", [](flow::PassContext&) {
        throw std::runtime_error("kaput");
    }));
    flow::ArtifactStore store;
    diag::DiagnosticEngine engine;
    auto result = pm.run(store, engine);
    EXPECT_FALSE(result.ok);
    ASSERT_TRUE(engine.has_errors());
    EXPECT_EQ(engine.diagnostics()[0].message, "kaput");
}

TEST(PassManager, CountersAndTimingsLandInTrace) {
    flow::PassManager pm("t");
    pm.add(flow::Pass("count", [](flow::PassContext& ctx) {
        ctx.count("widgets", 3);
        ctx.count("widgets", 2);
    }));
    flow::ArtifactStore store;
    diag::DiagnosticEngine engine;
    flow::FlowTrace trace;
    auto result = pm.run(store, engine, &trace, "grp");
    EXPECT_TRUE(result.ok);
    ASSERT_EQ(trace.entries().size(), 1u);
    EXPECT_EQ(trace.entries()[0].pass, "count");
    EXPECT_EQ(trace.entries()[0].group, "grp");
    EXPECT_EQ(trace.entries()[0].counters.at("widgets"), 5u);
    EXPECT_GE(trace.entries()[0].wall_ms, 0.0);
}

// --- partitioner --------------------------------------------------------------------

TEST(Partitioner, CraneClosedLoopIsControlFlow) {
    uml::Model model = cases::crane_model();
    flow::PartitionReport report = flow::partition(model);
    ASSERT_EQ(report.subsystems.size(), 1u);
    EXPECT_EQ(report.subsystems[0].name, "threads");
    EXPECT_EQ(report.subsystems[0].kind, flow::SubsystemKind::ControlFlow);
    EXPECT_GE(report.feedback_cycles, 1u);
    EXPECT_EQ(report.dominant, flow::SubsystemKind::ControlFlow);
}

TEST(Partitioner, DidacticPipelineIsDataflow) {
    uml::Model model = cases::didactic_model();
    flow::PartitionReport report = flow::partition(model);
    ASSERT_EQ(report.subsystems.size(), 1u);
    EXPECT_EQ(report.subsystems[0].kind, flow::SubsystemKind::Dataflow);
    EXPECT_EQ(report.feedback_cycles, 0u);
    EXPECT_EQ(report.dominant, flow::SubsystemKind::Dataflow);
}

TEST(Partitioner, MixedModelSplitsControlAndThreads) {
    uml::Model model = cases::mixed_model();
    flow::PartitionReport report = flow::partition(model);
    ASSERT_EQ(report.subsystems.size(), 2u);
    EXPECT_EQ(report.subsystems[0].name, "control:Elevator");
    EXPECT_NE(report.subsystems[0].machine, nullptr);
    EXPECT_EQ(report.subsystems[1].name, "threads");
    EXPECT_EQ(report.subsystems[1].threads.size(), 3u);
}

TEST(Partitioner, EmptyModelIsDeterministicAndNeverThrows) {
    uml::Model model("empty");
    flow::PartitionReport a;
    ASSERT_NO_THROW(a = flow::partition(model));
    flow::PartitionReport b = flow::partition(model);
    EXPECT_EQ(a.subsystems.size(), b.subsystems.size());
    EXPECT_EQ(a.dominant, b.dominant);
    EXPECT_EQ(a.feedback_cycles, 0u);
    for (const flow::Subsystem& s : a.subsystems)
        EXPECT_TRUE(!s.threads.empty() || s.machine != nullptr) << s.name;
}

TEST(Partitioner, SingleThreadModelIsOneDataflowSubsystem) {
    uml::ModelBuilder b("lonely");
    b.thread("T1");
    flow::PartitionReport report;
    ASSERT_NO_THROW(report = flow::partition(b.model()));
    ASSERT_EQ(report.subsystems.size(), 1u);
    EXPECT_EQ(report.subsystems[0].threads.size(), 1u);
    EXPECT_EQ(report.subsystems[0].kind, flow::SubsystemKind::Dataflow);
    EXPECT_EQ(report.feedback_cycles, 0u);
    // Deterministic: same classification on every call.
    flow::PartitionReport again = flow::partition(b.model());
    EXPECT_EQ(again.subsystems[0].kind, report.subsystems[0].kind);
    EXPECT_EQ(again.subsystems[0].name, report.subsystems[0].name);
}

TEST(Partitioner, AllControlFlowModelClassifiesEveryMachine) {
    uml::Model model("machines_only");
    model.add_state_machine("A").add_state("S");
    model.add_state_machine("B").add_state("S");
    flow::PartitionReport report;
    ASSERT_NO_THROW(report = flow::partition(model));
    ASSERT_EQ(report.subsystems.size(), 2u);
    for (const flow::Subsystem& s : report.subsystems) {
        EXPECT_EQ(s.kind, flow::SubsystemKind::ControlFlow) << s.name;
        EXPECT_NE(s.machine, nullptr) << s.name;
    }
    EXPECT_EQ(report.dominant, flow::SubsystemKind::ControlFlow);
}

// --- mapping entry points ----------------------------------------------------------

TEST(PipelineCompat, ThrowingSurfaceStillThrowsOnIllFormed) {
    uml::Model empty("hollow");
    EXPECT_THROW(core::map_to_caam(empty, {}), std::runtime_error);

    // A §4.1 violation: what() names the failing uml.* code.
    uml::ModelBuilder b("bad");
    b.thread("A");
    b.thread("B");
    b.seq("sd").message("A", "B", "notAConvention").arg("x");
    b.cpu("CPU1");
    b.deploy("A", "CPU1").deploy("B", "CPU1");
    const uml::Model bad = b.take();
    diag::DiagnosticEngine engine;
    ASSERT_FALSE(core::map_to_caam(bad, {}, engine).has_value());
    ASSERT_TRUE(engine.has_errors());
    std::string code;
    for (const diag::Diagnostic& d : engine.diagnostics())
        if (d.severity >= diag::Severity::Error) {
            code = d.code;
            break;
        }
    ASSERT_EQ(code.rfind("uml.", 0), 0u) << code;
    try {
        (void)core::map_to_caam(bad, {});
        FAIL() << "ill-formed model mapped without throwing";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("[" + code + "]"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PipelineCompat, WarningsViewDerivesFromDiagnostics) {
    core::MapperReport report;
    report.diagnostics.push_back({diag::Severity::Warning,
                                  "uml.wellformed", "[w1] problem"});
    report.diagnostics.push_back(
        {diag::Severity::Warning, diag::codes::kMapRule, "rule skipped"});
    report.diagnostics.push_back(
        {diag::Severity::Error, diag::codes::kCaamInvalid, "not a warning"});
    EXPECT_EQ(report.warnings(),
              (std::vector<std::string>{"uml: [w1] problem", "rule skipped"}));
}

// --- heterogeneous generate ---------------------------------------------------------

// Every unit run adds its thread's CPU time and minor page faults under
// its branch name, the shared CAAM prep under `caam-prep`.
TEST(Generate, UnitsRecordThreadCpuTimeAndMinorFaults) {
#if !defined(__linux__)
    GTEST_SKIP() << "per-thread CPU clocks are read on Linux only";
#else
    uml::Model model = cases::mixed_model();
    flow::GenerateOptions options;
    options.with_kpn = true;
    options.gen_jobs = 2;
    diag::DiagnosticEngine engine;
    flow::GenerateResult result = flow::generate(model, options, engine);
    ASSERT_EQ(result.status, flow::GenerateStatus::Ok) << engine.render_text();
    const std::map<std::string, std::uint64_t> counters =
        obs::metrics_snapshot().counters;
    std::vector<std::string> units{"caam-prep"};
    for (const flow::StrategyResult& sr : result.results)
        units.push_back(sr.strategy);
    for (const std::string& unit : units) {
        EXPECT_EQ(counters.count("flow.unit." + unit + ".cpu_us"), 1u) << unit;
        EXPECT_EQ(counters.count("flow.unit." + unit + ".minor_faults"), 1u) << unit;
    }
    EXPECT_GT(counters.at("flow.unit.caam-prep.cpu_us"), 0u);
#endif
}

TEST(Generate, MixedModelProducesAllBranches) {
    uml::Model model = cases::mixed_model();
    flow::GenerateOptions options;
    diag::DiagnosticEngine engine;
    flow::FlowTrace trace;
    flow::GenerateResult result =
        flow::generate(model, options, engine, &trace);
    EXPECT_EQ(result.status, flow::GenerateStatus::Ok);

    std::vector<std::string> files;
    for (const flow::StrategyResult& sr : result.results)
        for (const flow::GeneratedFile& f : sr.files) files.push_back(f.name);
    auto has = [&](const char* name) {
        return std::find(files.begin(), files.end(), name) != files.end();
    };
    EXPECT_TRUE(has("mixed.mdl"));
    EXPECT_TRUE(has("elevator_fsm.c") || has("Elevator_fsm.c") ||
                has("elevator.c"))
        << "no FSM C source among generated files";
    EXPECT_TRUE(has("mixed_threads.cpp"));

    // On every case study the dispatcher's .mdl equals map_to_caam +
    // write_mdl (generate switches to automatic allocation when the model
    // ships no deployment diagram, so the direct call does too).
    for (const uml::Model& m :
         {cases::didactic_model(), cases::crane_model(),
          cases::synthetic_model(), cases::mixed_model()}) {
        diag::DiagnosticEngine case_engine;
        flow::GenerateResult generated =
            flow::generate(m, flow::GenerateOptions{}, case_engine);
        core::MapperOptions mapper;
        mapper.auto_allocate = m.deployment_or_null() == nullptr;
        const std::string expected =
            simulink::write_mdl(core::map_to_caam(m, mapper));
        std::size_t compared = 0;
        for (const flow::StrategyResult& sr : generated.results)
            if (sr.strategy == "simulink-caam")
                for (const flow::GeneratedFile& f : sr.files)
                    if (f.name == m.name() + ".mdl") {
                        EXPECT_EQ(f.contents, expected) << m.name();
                        ++compared;
                    }
        EXPECT_EQ(compared, 1u) << m.name();
    }
}

// --- dispatch pin: which branches run, in what order, under which groups ---------

std::string joined(const std::vector<std::string>& items) {
    std::string out;
    for (const std::string& s : items) out += (out.empty() ? "" : ",") + s;
    return out;
}

/// The dispatch decision of one generate run, one line per unit then one
/// per traced pass:
///   "<strategy> <subsystem>: <file> <file> ..."
///   "<group> <pass> [<reads>] -> [<writes>] {<counter names>}"
/// Each file's FNV-1a digest (16 hex digits) is added to `digests`.
std::string dispatch_shape(const uml::Model& model,
                           const flow::GenerateOptions& options,
                           std::map<std::string, std::string>& digests) {
    diag::DiagnosticEngine engine;
    flow::FlowTrace trace;
    flow::GenerateResult result = flow::generate(model, options, engine, &trace);
    std::string out;
    for (const flow::StrategyResult& sr : result.results) {
        out += sr.strategy + " " + sr.subsystem + ":";
        for (const flow::GeneratedFile& f : sr.files) {
            out += " " + f.name;
            char hex[17];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(
                              core::fnv1a(f.contents)));
            digests[f.name] = hex;
        }
        out += "\n";
    }
    for (const flow::PassTraceEntry& e : trace.entries()) {
        std::vector<std::string> counters;
        for (const auto& [name, value] : e.counters) counters.push_back(name);
        out += e.group + " " + e.pass + " [" + joined(e.reads) + "] -> [" +
               joined(e.writes) + "] {" + joined(counters) + "}\n";
    }
    return out;
}

TEST(Generate, DispatchPinnedPerCaseStudyAndOptionSet) {
    // Trace blocks several runs share.
    const std::string dataflow_partition =
        "partition flow.partition [uml.model] -> [flow.partition-report] "
        "{dataflow,feedback-cycles,subsystems,taskgraph-edges,taskgraph-tasks}\n";
    const std::string control_partition =
        "partition flow.partition [uml.model] -> [flow.partition-report] "
        "{control-flow,feedback-cycles,subsystems,taskgraph-edges,"
        "taskgraph-tasks}\n";
    const std::string caam_prep =
        R"(simulink-caam:threads uml.wellformed [uml.model] -> [uml.issues] {issues}
simulink-caam:threads core.comm [uml.model] -> [core.comm] {channels,io-accesses}
simulink-caam:threads core.allocate [uml.model,core.comm] -> [core.allocation] {processors}
simulink-caam:threads core.mapping [uml.model,core.comm,core.allocation] -> [core.caam-generic] {rule.Interaction2Layer,rule.Model2Caam,rule.ProducerOutports,rule.Thread2ThreadSS,trace-links}
simulink-caam:threads caam.lift [core.caam-generic] -> [simulink.caam] {blocks}
simulink-caam:threads caam.channels [simulink.caam,core.comm] -> [caam.channel-report] {inter,intra,system-ports}
simulink-caam:threads caam.delays [simulink.caam] -> [caam.delay-report] {barriers}
simulink-caam:threads caam.validate [simulink.caam] -> [] {problems}
simulink-caam:threads sim.schedulability [simulink.caam] -> [] {probe-skipped}
)";
    const std::string estimate_priced =
        "simulink-caam:threads sim.estimate [uml.model,core.comm,"
        "core.allocation] -> [] "
        "{estimate-bus-transfers,estimate-cpus,estimate-makespan}\n";
    const std::string estimate_skipped =
        "simulink-caam:threads sim.estimate [uml.model,core.comm,"
        "core.allocation] -> [] {estimate-skipped}\n";
    const std::string mdl_emit =
        "simulink-caam:threads simulink.emit [caam.shared] -> "
        "[simulink.mdl] {bytes}\n";
    const std::string c_dot_emit =
        R"(caam-c:threads caam.emit-c [caam.shared] -> [caam.c-program] {bytes,channels,files,sfunctions}
caam-dot:threads caam.emit-dot [caam.shared] -> [caam.dot] {bytes}
)";
    const std::string threads_pass =
        "cpp-threads:threads codegen.threads [uml.model] -> "
        "[codegen.cpp-threads] {bytes,queues,threads}\n";
    const std::string kpn_passes =
        R"(kpn:threads kpn.map [uml.model] -> [kpn.network] {channels,initial-tokens,processes}
kpn:threads kpn.validate [kpn.network] -> [] {budget-firings,firings,max-queue-depth,rounds}
)";
    const std::string fsm_passes =
        R"(fsm-c:control:Elevator fsm.flatten [uml.statemachine] -> [fsm.machine] {states,transitions}
fsm-c:control:Elevator fsm.emit-c [fsm.machine] -> [fsm.c] {bytes}
)";

    const std::string didactic_c_dot =
        "caam-c threads: didactic_cpu_CPU1.c didactic_cpu_CPU2.c "
        "didactic_main.c didactic_sfunctions.c didactic_sfunctions.h "
        "didactic_uhcg_rt.h\n"
        "caam-dot threads: didactic_caam.dot\n";
    const std::string crane_c_dot =
        "caam-c threads: crane_cpu_CPU1.c crane_main.c crane_sfunctions.c "
        "crane_sfunctions.h crane_uhcg_rt.h\n"
        "caam-dot threads: crane_caam.dot\n";
    const std::string mixed_c_dot =
        "caam-c threads: mixed_cpu_CPU1.c mixed_main.c mixed_sfunctions.c "
        "mixed_sfunctions.h mixed_uhcg_rt.h\n"
        "caam-dot threads: mixed_caam.dot\n";
    const std::string mixed_fsm = "fsm-c control:Elevator: Elevator_fsm.h "
                                  "Elevator_fsm.c\n";

    flow::GenerateOptions defaults;
    flow::GenerateOptions with_kpn;
    with_kpn.with_kpn = true;
    flow::GenerateOptions no_caam_c_dot;
    no_caam_c_dot.caam_c = false;
    no_caam_c_dot.caam_dot = false;

    struct Case {
        const char* label;
        uml::Model model;
        const flow::GenerateOptions* options;
        std::string expected;
    };
    // A synthetic model large enough that channel inference (551 channel
    // blocks) and the §4.2.2 cycle search run at more than toy size. It is
    // acyclic, so crane and mixed remain the cases that splice delays.
    campaign::CorpusOptions synth;
    synth.models = 1;
    synth.seed = 7;
    synth.min_threads = 60;
    synth.max_threads = 60;

    const Case cases[] = {
        {"didactic/defaults", cases::didactic_model(), &defaults,
         "simulink-caam threads: didactic.mdl\n" + didactic_c_dot +
             "cpp-threads threads: didactic_threads.cpp\n" +
             dataflow_partition + caam_prep + estimate_priced + mdl_emit +
             c_dot_emit + threads_pass},
        {"didactic/with_kpn", cases::didactic_model(), &with_kpn,
         "simulink-caam threads: didactic.mdl\n" + didactic_c_dot +
             "cpp-threads threads: didactic_threads.cpp\n"
             "kpn threads: didactic_kpn.txt\n" +
             dataflow_partition + caam_prep + estimate_priced + mdl_emit +
             c_dot_emit + threads_pass + kpn_passes},
        {"didactic/no_caam_c_dot", cases::didactic_model(), &no_caam_c_dot,
         "simulink-caam threads: didactic.mdl\n"
         "cpp-threads threads: didactic_threads.cpp\n" +
             dataflow_partition + caam_prep + estimate_priced + mdl_emit +
             threads_pass},
        {"crane/defaults", cases::crane_model(), &defaults,
         "simulink-caam threads: crane.mdl\n" + crane_c_dot +
             "cpp-threads threads: crane_threads.cpp\n" + control_partition +
             caam_prep + estimate_skipped + mdl_emit + c_dot_emit +
             threads_pass},
        {"crane/with_kpn", cases::crane_model(), &with_kpn,
         "simulink-caam threads: crane.mdl\n" + crane_c_dot +
             "cpp-threads threads: crane_threads.cpp\n"
             "kpn threads: crane_kpn.txt\n" +
             control_partition + caam_prep + estimate_skipped + mdl_emit +
             c_dot_emit + threads_pass + kpn_passes},
        {"crane/no_caam_c_dot", cases::crane_model(), &no_caam_c_dot,
         "simulink-caam threads: crane.mdl\n"
         "cpp-threads threads: crane_threads.cpp\n" +
             control_partition + caam_prep + estimate_skipped + mdl_emit +
             threads_pass},
        {"mixed/defaults", cases::mixed_model(), &defaults,
         mixed_fsm + "simulink-caam threads: mixed.mdl\n" + mixed_c_dot +
             "cpp-threads threads: mixed_threads.cpp\n" + control_partition +
             fsm_passes + caam_prep + estimate_skipped + mdl_emit +
             c_dot_emit + threads_pass},
        {"mixed/with_kpn", cases::mixed_model(), &with_kpn,
         mixed_fsm + "simulink-caam threads: mixed.mdl\n" + mixed_c_dot +
             "cpp-threads threads: mixed_threads.cpp\n"
             "kpn threads: mixed_kpn.txt\n" +
             control_partition + fsm_passes + caam_prep + estimate_skipped +
             mdl_emit + c_dot_emit + threads_pass + kpn_passes},
        {"mixed/no_caam_c_dot", cases::mixed_model(), &no_caam_c_dot,
         mixed_fsm + "simulink-caam threads: mixed.mdl\n"
                     "cpp-threads threads: mixed_threads.cpp\n" +
             control_partition + fsm_passes + caam_prep + estimate_skipped +
             mdl_emit + threads_pass},
        {"synth-60/defaults", campaign::synth_model(synth, 0), &defaults,
         "simulink-caam threads: corpus_0.mdl\n"
         "caam-c threads: corpus_0_cpu_CPU0.c corpus_0_cpu_CPU1.c "
         "corpus_0_cpu_CPU10.c corpus_0_cpu_CPU2.c corpus_0_cpu_CPU3.c "
         "corpus_0_cpu_CPU4.c corpus_0_cpu_CPU5.c corpus_0_cpu_CPU6.c "
         "corpus_0_cpu_CPU7.c corpus_0_cpu_CPU8.c corpus_0_cpu_CPU9.c "
         "corpus_0_main.c corpus_0_sfunctions.c corpus_0_sfunctions.h "
         "corpus_0_uhcg_rt.h\n"
         "caam-dot threads: corpus_0_caam.dot\n"
         "cpp-threads threads: corpus_0_threads.cpp\n" +
             dataflow_partition + caam_prep + estimate_priced + mdl_emit +
             c_dot_emit + threads_pass},
    };
    // Output bytes of every pinned file. A file an option set does not
    // touch has one digest across option sets, so one table serves all.
    const std::map<std::string, std::string> pinned_digests = {
        {"Elevator_fsm.c", "3c743a515b96f6e5"},
        {"Elevator_fsm.h", "452bd5e170d3ca3a"},
        {"corpus_0.mdl", "1430fd0ecb3626a3"},
        {"corpus_0_caam.dot", "3ced85f5429b6357"},
        {"corpus_0_cpu_CPU0.c", "1c4e98debcdd8210"},
        {"corpus_0_cpu_CPU1.c", "58c22fd63d7b6bfb"},
        {"corpus_0_cpu_CPU10.c", "da5988878fcb8405"},
        {"corpus_0_cpu_CPU2.c", "075e7699cabf2921"},
        {"corpus_0_cpu_CPU3.c", "654a75fd07543d18"},
        {"corpus_0_cpu_CPU4.c", "473d013f8ab76f0c"},
        {"corpus_0_cpu_CPU5.c", "cfd9fb62462cd8aa"},
        {"corpus_0_cpu_CPU6.c", "fa93123a0e06c2c5"},
        {"corpus_0_cpu_CPU7.c", "1acfc949609df4d3"},
        {"corpus_0_cpu_CPU8.c", "7863f4103cf255d6"},
        {"corpus_0_cpu_CPU9.c", "bb80c3a98a6fb272"},
        {"corpus_0_main.c", "0bb108223c024e25"},
        {"corpus_0_sfunctions.c", "c45c52358ac7b095"},
        {"corpus_0_sfunctions.h", "d644173295dea068"},
        {"corpus_0_threads.cpp", "7fe9207d13cb2205"},
        {"corpus_0_uhcg_rt.h", "51609aded7d6325a"},
        {"crane.mdl", "70b429672d31cc3b"},
        {"crane_caam.dot", "cf81d8d42e840f52"},
        {"crane_cpu_CPU1.c", "1c2d391e64285628"},
        {"crane_kpn.txt", "4de702eeca1301a0"},
        {"crane_main.c", "d8b0c36cd021c4d2"},
        {"crane_sfunctions.c", "bf48ebf156dea7c0"},
        {"crane_sfunctions.h", "0fba3e2bf6bd0e65"},
        {"crane_threads.cpp", "f7cd3e12c6d68e0b"},
        {"crane_uhcg_rt.h", "51609aded7d6325a"},
        {"didactic.mdl", "2e2ed5f111227e2f"},
        {"didactic_caam.dot", "490c46f0e0ad5ecc"},
        {"didactic_cpu_CPU1.c", "75b91c022db09d2f"},
        {"didactic_cpu_CPU2.c", "835ce272f373f875"},
        {"didactic_kpn.txt", "612b6c94e7f8158d"},
        {"didactic_main.c", "9fe5ece8adda677a"},
        {"didactic_sfunctions.c", "d11701510d062a84"},
        {"didactic_sfunctions.h", "3400034101280ff2"},
        {"didactic_threads.cpp", "8d9c6d293efcefa9"},
        {"didactic_uhcg_rt.h", "51609aded7d6325a"},
        {"mixed.mdl", "8bf9045cfc8a5ea3"},
        {"mixed_caam.dot", "f300a2d3874afa38"},
        {"mixed_cpu_CPU1.c", "1c2d391e64285628"},
        {"mixed_kpn.txt", "441f3543ca8ecefa"},
        {"mixed_main.c", "d8b0c36cd021c4d2"},
        {"mixed_sfunctions.c", "bf48ebf156dea7c0"},
        {"mixed_sfunctions.h", "0fba3e2bf6bd0e65"},
        {"mixed_threads.cpp", "fdebe9d5e374b41d"},
        {"mixed_uhcg_rt.h", "51609aded7d6325a"},
    };
    for (const Case& c : cases) {
        std::map<std::string, std::string> digests;
        EXPECT_EQ(dispatch_shape(c.model, *c.options, digests), c.expected)
            << c.label;
        for (const auto& [name, digest] : digests) {
            auto pinned = pinned_digests.find(name);
            if (pinned == pinned_digests.end()) {
                ADD_FAILURE() << c.label << ": no pinned digest for {\"" << name
                              << "\", \"" << digest << "\"}";
                continue;
            }
            EXPECT_EQ(digest, pinned->second) << c.label << " " << name;
        }
    }
}

TEST(Generate, TraceJsonMatchesSchema) {
    uml::Model model = cases::mixed_model();
    flow::GenerateOptions options;
    diag::DiagnosticEngine engine;
    flow::FlowTrace trace;
    flow::generate(model, options, engine, &trace);
    std::string json = trace.to_json();
    for (const char* needle :
         {"\"schema\": \"uhcg-flow-trace-v1\"", "\"model\": \"mixed\"",
          "\"passes\": [", "\"partitions\": [", "\"outputs\": [",
          "\"totals\": {", "\"wall_ms\":", "\"counters\":",
          "\"flow.partition\"", "\"uml.wellformed\"", "\"fsm.flatten\"",
          "\"simulink-caam:threads\"", "\"fsm-c:control:Elevator\""}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing from trace JSON: " << needle;
    }
    // Every pass ran under a group and the totals add up.
    EXPECT_GT(trace.entries().size(), 6u);
    for (const flow::PassTraceEntry& e : trace.entries())
        EXPECT_FALSE(e.group.empty()) << e.pass;
}

TEST(Generate, FsmStrategySkippedWithoutMachines) {
    uml::Model model = cases::didactic_model();
    flow::GenerateOptions options;
    diag::DiagnosticEngine engine;
    flow::GenerateResult result = flow::generate(model, options, engine);
    EXPECT_EQ(result.status, flow::GenerateStatus::Ok);
    for (const flow::StrategyResult& sr : result.results)
        EXPECT_NE(sr.strategy, "fsm-c");
}

TEST(Generate, CaamEmittersShipCAndDotFromSharedMapping) {
    uml::Model model = cases::mixed_model();
    flow::GenerateOptions options;
    diag::DiagnosticEngine engine;
    flow::GenerateResult result = flow::generate(model, options, engine);
    EXPECT_EQ(result.status, flow::GenerateStatus::Ok);

    std::vector<std::string> files;
    for (const flow::StrategyResult& sr : result.results)
        for (const flow::GeneratedFile& f : sr.files) files.push_back(f.name);
    auto has = [&](const char* name) {
        return std::find(files.begin(), files.end(), name) != files.end();
    };
    EXPECT_TRUE(has("mixed_main.c"));
    EXPECT_TRUE(has("mixed_uhcg_rt.h"));
    EXPECT_TRUE(has("mixed_caam.dot"));

    // --no-caam-c / --no-caam-dot drop exactly those units.
    options.caam_c = false;
    options.caam_dot = false;
    diag::DiagnosticEngine engine2;
    flow::GenerateResult trimmed = flow::generate(model, options, engine2);
    EXPECT_EQ(trimmed.status, flow::GenerateStatus::Ok);
    for (const flow::StrategyResult& sr : trimmed.results) {
        EXPECT_NE(sr.strategy, "caam-c");
        EXPECT_NE(sr.strategy, "caam-dot");
    }
}

// The tentpole economics: three caam-family emitters, one mapping. The
// process-wide counter must advance by exactly one per dataflow
// subsystem, serial or parallel.
TEST(Generate, SharedCaamComputedExactlyOncePerSubsystem) {
    uml::Model model = cases::mixed_model();  // one dataflow subsystem
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        flow::GenerateOptions options;
        options.gen_jobs = jobs;
        diag::DiagnosticEngine engine;
        const std::uint64_t before =
            obs::counter("flow.caam_shared_computed").value();
        flow::GenerateResult result = flow::generate(model, options, engine);
        const std::uint64_t after =
            obs::counter("flow.caam_shared_computed").value();
        EXPECT_EQ(result.status, flow::GenerateStatus::Ok)
            << "gen_jobs=" << jobs;
        EXPECT_EQ(after - before, 1u)
            << "shared CAAM recomputed at gen_jobs=" << jobs;
    }
}

// `simulink.lookup_scans` counts the blocks and lines the System lookups
// visit: an exact work count, the same for repeated runs and for any
// gen_jobs.
TEST(Generate, LookupScansAreExactAcrossRunsAndGenJobs) {
    campaign::CorpusOptions synth;
    synth.models = 1;
    synth.seed = 7;
    synth.min_threads = 20;
    synth.max_threads = 20;
    uml::Model model = campaign::synth_model(synth, 0);
    auto scans = [&](std::size_t jobs) {
        flow::GenerateOptions options;
        options.gen_jobs = jobs;
        diag::DiagnosticEngine engine;
        obs::Counter& counter = obs::counter("simulink.lookup_scans");
        const std::uint64_t before = counter.value();
        flow::GenerateResult result = flow::generate(model, options, engine);
        EXPECT_EQ(result.status, flow::GenerateStatus::Ok) << "gen_jobs=" << jobs;
        return counter.value() - before;
    };
    const std::uint64_t first = scans(1);
    EXPECT_GT(first, 0u);
    EXPECT_EQ(scans(1), first);
    EXPECT_EQ(scans(4), first);
}

// The CAAM passes are linear in the channel count. Between a 60- and a
// 120-thread synth model (551 and 2 196 channel blocks) the exact work
// counters `simulink.lookup_scans` (index probes) and `caam.delays.atoms`
// grow with a log-log slope of at most 1.25, on any host. Linear lookup
// scans showed a slope of about 2.6 here.
TEST(Generate, CaamWorkCountersGrowLinearlyWithChannels) {
    struct Work {
        double channels, probes, atoms;
    };
    auto measure = [](std::size_t threads) {
        campaign::CorpusOptions synth;
        synth.models = 1;
        synth.seed = 7;
        synth.min_threads = threads;
        synth.max_threads = threads;
        uml::Model model = campaign::synth_model(synth, 0);
        obs::Counter& probes = obs::counter("simulink.lookup_scans");
        obs::Counter& atoms = obs::counter("caam.delays.atoms");
        const std::uint64_t probes_before = probes.value();
        const std::uint64_t atoms_before = atoms.value();
        diag::DiagnosticEngine engine;
        flow::GenerateResult result =
            flow::generate(model, flow::GenerateOptions{}, engine);
        EXPECT_EQ(result.status, flow::GenerateStatus::Ok) << threads;
        Work work{0, static_cast<double>(probes.value() - probes_before),
                  static_cast<double>(atoms.value() - atoms_before)};
        for (const flow::StrategyResult& r : result.results)
            for (const flow::GeneratedFile& f : r.files)
                if (f.name.ends_with(".mdl")) {
                    simulink::CaamStats stats =
                        simulink::caam_stats(simulink::parse_mdl(f.contents));
                    work.channels = static_cast<double>(stats.inter_channels +
                                                        stats.intra_channels);
                }
        return work;
    };
    const Work small = measure(60);
    const Work large = measure(120);
    EXPECT_EQ(small.channels, 551);
    EXPECT_EQ(large.channels, 2196);
    ASSERT_GT(small.probes, 0);
    ASSERT_GT(small.atoms, 0);
    const double growth = std::log(large.channels / small.channels);
    EXPECT_LE(std::log(large.probes / small.probes) / growth, 1.25)
        << "simulink.lookup_scans " << small.probes << " -> " << large.probes;
    EXPECT_LE(std::log(large.atoms / small.atoms) / growth, 1.25)
        << "caam.delays.atoms " << small.atoms << " -> " << large.atoms;
}

// The communication queries and the KPN branch are linear in the channel
// count too. With the KPN branch on, between the same 60- and 120-thread
// synth models, `core.comm.visits` (CommModel index entries visited) and
// `kpn.run.visits` (executor ports checked plus tokens moved) grow with a
// log-log slope of at most 1.25.
TEST(Generate, FrontEndAndKpnWorkGrowLinearlyWithChannels) {
    struct Work {
        double channels, comm, kpn;
    };
    auto measure = [](std::size_t threads) {
        campaign::CorpusOptions synth;
        synth.models = 1;
        synth.seed = 7;
        synth.min_threads = threads;
        synth.max_threads = threads;
        uml::Model model = campaign::synth_model(synth, 0);
        obs::Counter& comm = obs::counter("core.comm.visits");
        obs::Counter& kpn = obs::counter("kpn.run.visits");
        const std::uint64_t comm_before = comm.value();
        const std::uint64_t kpn_before = kpn.value();
        flow::GenerateOptions options;
        options.with_kpn = true;
        diag::DiagnosticEngine engine;
        flow::GenerateResult result = flow::generate(model, options, engine);
        EXPECT_EQ(result.status, flow::GenerateStatus::Ok) << threads;
        Work work{0, static_cast<double>(comm.value() - comm_before),
                  static_cast<double>(kpn.value() - kpn_before)};
        for (const flow::StrategyResult& r : result.results)
            for (const flow::GeneratedFile& f : r.files)
                if (f.name.ends_with(".mdl")) {
                    simulink::CaamStats stats =
                        simulink::caam_stats(simulink::parse_mdl(f.contents));
                    work.channels = static_cast<double>(stats.inter_channels +
                                                        stats.intra_channels);
                }
        return work;
    };
    const Work small = measure(60);
    const Work large = measure(120);
    EXPECT_EQ(small.channels, 551);
    EXPECT_EQ(large.channels, 2196);
    ASSERT_GT(small.comm, 0);
    ASSERT_GT(small.kpn, 0);
    const double growth = std::log(large.channels / small.channels);
    EXPECT_LE(std::log(large.comm / small.comm) / growth, 1.25)
        << "core.comm.visits " << small.comm << " -> " << large.comm;
    EXPECT_LE(std::log(large.kpn / small.kpn) / growth, 1.25)
        << "kpn.run.visits " << small.kpn << " -> " << large.kpn;
}

// The model-to-model transformations and the schedulability probe are
// linear in the channel count. With the KPN branch on, between the same
// 60- and 120-thread synth models, `transform.objects` (source plus target
// objects of every transformation run), `model.id_probes` (id-table slots
// their creates and finds inspect) and `sim.resolve.visits` (blocks
// visited resolving drivers) grow with a log-log slope of at most 1.25.
// All are exact: a parallel run counts what a serial run counts.
TEST(Generate, MappingAndScheduleWorkGrowLinearlyWithChannels) {
    struct Work {
        double channels, objects, visits, id_probes;
    };
    auto measure = [](std::size_t threads, std::size_t gen_jobs) {
        campaign::CorpusOptions synth;
        synth.models = 1;
        synth.seed = 7;
        synth.min_threads = threads;
        synth.max_threads = threads;
        uml::Model model = campaign::synth_model(synth, 0);
        obs::Counter& objects = obs::counter("transform.objects");
        obs::Counter& visits = obs::counter("sim.resolve.visits");
        obs::Counter& id_probes = obs::counter("model.id_probes");
        const std::uint64_t objects_before = objects.value();
        const std::uint64_t visits_before = visits.value();
        const std::uint64_t id_probes_before = id_probes.value();
        flow::GenerateOptions options;
        options.with_kpn = true;
        options.gen_jobs = gen_jobs;
        diag::DiagnosticEngine engine;
        flow::GenerateResult result = flow::generate(model, options, engine);
        EXPECT_EQ(result.status, flow::GenerateStatus::Ok) << threads;
        Work work{0, static_cast<double>(objects.value() - objects_before),
                  static_cast<double>(visits.value() - visits_before),
                  static_cast<double>(id_probes.value() - id_probes_before)};
        for (const flow::StrategyResult& r : result.results)
            for (const flow::GeneratedFile& f : r.files)
                if (f.name.ends_with(".mdl")) {
                    simulink::CaamStats stats =
                        simulink::caam_stats(simulink::parse_mdl(f.contents));
                    work.channels = static_cast<double>(stats.inter_channels +
                                                        stats.intra_channels);
                }
        return work;
    };
    const Work small = measure(60, 1);
    const Work large = measure(120, 1);
    EXPECT_EQ(small.channels, 551);
    EXPECT_EQ(large.channels, 2196);
    ASSERT_GT(small.objects, 0);
    ASSERT_GT(small.visits, 0);
    ASSERT_GT(small.id_probes, 0);
    const double growth = std::log(large.channels / small.channels);
    EXPECT_LE(std::log(large.objects / small.objects) / growth, 1.25)
        << "transform.objects " << small.objects << " -> " << large.objects;
    EXPECT_LE(std::log(large.id_probes / small.id_probes) / growth, 1.25)
        << "model.id_probes " << small.id_probes << " -> " << large.id_probes;
    EXPECT_LE(std::log(large.visits / small.visits) / growth, 1.25)
        << "sim.resolve.visits " << small.visits << " -> " << large.visits;
    for (std::size_t threads : {60, 120}) {
        const Work& serial = threads == 60 ? small : large;
        const Work parallel = measure(threads, 4);
        EXPECT_EQ(parallel.objects, serial.objects) << threads;
        EXPECT_EQ(parallel.visits, serial.visits) << threads;
        EXPECT_EQ(parallel.id_probes, serial.id_probes) << threads;
    }
}

// The fallback and KPN branches are linear too: between the same 60- and
// 120-thread synth models, `codegen.threads.visits` (messages, links and
// channel probes the cpp-threads emitter touches) and `kpn.map.visits`
// (links, link-list entries, IO accesses and DFS edges of the KPN
// mapping) grow with a log-log slope of at most 1.25. Both are exact.
TEST(Generate, ThreadsAndKpnWorkGrowLinearlyWithChannels) {
    struct Work {
        double links, threads, kpn;
    };
    auto measure = [](std::size_t threads, std::size_t gen_jobs) {
        campaign::CorpusOptions synth;
        synth.models = 1;
        synth.seed = 7;
        synth.min_threads = threads;
        synth.max_threads = threads;
        uml::Model model = campaign::synth_model(synth, 0);
        obs::Counter& emit = obs::counter("codegen.threads.visits");
        obs::Counter& kpn = obs::counter("kpn.map.visits");
        const std::uint64_t emit_before = emit.value();
        const std::uint64_t kpn_before = kpn.value();
        flow::GenerateOptions options;
        options.with_kpn = true;
        options.gen_jobs = gen_jobs;
        diag::DiagnosticEngine engine;
        flow::GenerateResult result = flow::generate(model, options, engine);
        EXPECT_EQ(result.status, flow::GenerateStatus::Ok) << threads;
        return Work{static_cast<double>(core::analyze_communication(model).links().size()),
                    static_cast<double>(emit.value() - emit_before),
                    static_cast<double>(kpn.value() - kpn_before)};
    };
    const Work small = measure(60, 1);
    const Work large = measure(120, 1);
    ASSERT_GT(small.threads, 0);
    ASSERT_GT(small.kpn, 0);
    const double growth = std::log(large.links / small.links);
    ASSERT_GT(growth, 1.0);
    EXPECT_LE(std::log(large.threads / small.threads) / growth, 1.25)
        << "codegen.threads.visits " << small.threads << " -> " << large.threads;
    EXPECT_LE(std::log(large.kpn / small.kpn) / growth, 1.25)
        << "kpn.map.visits " << small.kpn << " -> " << large.kpn;
    for (std::size_t threads : {60, 120}) {
        const Work& serial = threads == 60 ? small : large;
        const Work parallel = measure(threads, 4);
        EXPECT_EQ(parallel.threads, serial.threads) << threads;
        EXPECT_EQ(parallel.kpn, serial.kpn) << threads;
    }
}

// flow.partition analyses the model once and every unit shares that
// analysis: one `generate --with-kpn` records one core.comm-analyze span
// and builds one task graph, serial or parallel, with the automatic
// allocation and the cost estimate both running.
TEST(Generate, OneCommunicationAnalysisAndTaskGraphPerGenerate) {
    uml::Model model = cases::synthetic_model();  // no deployment diagram
    obs::Counter& graphs = obs::counter("taskgraph.graphs_built");
    for (std::size_t jobs : {1, 4}) {
        flow::GenerateOptions options;
        options.with_kpn = true;
        options.gen_jobs = jobs;
        diag::DiagnosticEngine engine;
        obs::reset_spans();
        obs::set_enabled(true);
        const std::uint64_t graphs_before = graphs.value();
        flow::GenerateResult result = flow::generate(model, options, engine);
        const std::uint64_t built = graphs.value() - graphs_before;
        obs::set_enabled(false);
        std::vector<obs::SpanRecord> spans = obs::spans_snapshot();
        obs::reset_spans();
        EXPECT_EQ(result.status, flow::GenerateStatus::Ok) << jobs;
        std::size_t analyses = 0, estimates = 0, allocations = 0;
        for (const obs::SpanRecord& s : spans) {
            analyses += s.name == "core.comm-analyze";
            estimates += s.name == "sim.estimate";
            allocations += s.name == "core.allocate-auto";
        }
        EXPECT_EQ(analyses, 1u) << jobs;
        EXPECT_EQ(built, 1u) << jobs;
        EXPECT_EQ(allocations, 1u) << jobs;
        EXPECT_EQ(estimates, 1u) << jobs;
    }
}

// A parallel run's results, manifest and diagnostics are byte-identical
// to the serial run's.
TEST(Generate, ParallelDispatchMatchesSerialByteForByte) {
    uml::Model model = cases::mixed_model();
    flow::GenerateOptions serial;
    serial.with_kpn = true;
    flow::GenerateOptions parallel = serial;
    parallel.gen_jobs = 4;

    diag::DiagnosticEngine e1, e2;
    flow::FlowTrace t1, t2;
    flow::GenerateResult r1 = flow::generate(model, serial, e1, &t1);
    flow::GenerateResult r2 = flow::generate(model, parallel, e2, &t2);

    EXPECT_EQ(flow::to_manifest_json(r1), flow::to_manifest_json(r2));
    EXPECT_EQ(e1.render_text(), e2.render_text());
    ASSERT_EQ(r1.results.size(), r2.results.size());
    for (std::size_t i = 0; i < r1.results.size(); ++i) {
        EXPECT_EQ(r1.results[i].strategy, r2.results[i].strategy);
        EXPECT_EQ(r1.results[i].subsystem, r2.results[i].subsystem);
        ASSERT_EQ(r1.results[i].files.size(), r2.results[i].files.size());
        for (std::size_t f = 0; f < r1.results[i].files.size(); ++f) {
            EXPECT_EQ(r1.results[i].files[f].name,
                      r2.results[i].files[f].name);
            EXPECT_EQ(r1.results[i].files[f].contents,
                      r2.results[i].files[f].contents);
        }
    }
    // Trace outputs (name, strategy, bytes) line up in canonical order.
    ASSERT_EQ(t1.outputs().size(), t2.outputs().size());
    for (std::size_t i = 0; i < t1.outputs().size(); ++i) {
        EXPECT_EQ(t1.outputs()[i].path, t2.outputs()[i].path);
        EXPECT_EQ(t1.outputs()[i].strategy, t2.outputs()[i].strategy);
        EXPECT_EQ(t1.outputs()[i].bytes, t2.outputs()[i].bytes);
    }
}

}  // namespace
