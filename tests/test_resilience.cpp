// Chaos suite for the flow resilience layer: fault-isolated strategies,
// retry/budget enforcement, transactional outputs, checkpoint/resume and
// the uhcg-flow-manifest-v1 failure manifest.
//
// The acceptance bar: under injected pass-level faults (30 distinct
// injection points below), generate() quarantines only the faulted
// (strategy × subsystem) unit, every surviving unit's files are
// byte-identical to a fault-free run, and the manifest names every
// quarantined unit with its stable error codes.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>

#include "campaign/campaign.hpp"
#include "campaign/corpus.hpp"
#include "campaign/manifest.hpp"
#include "cases/cases.hpp"
#include "core/hash.hpp"
#include "flow/checkpoint.hpp"
#include "flow/fault.hpp"
#include "flow/generate.hpp"
#include "flow/txout.hpp"
#include "uml/xmi.hpp"

namespace {

using namespace uhcg;
namespace fs = std::filesystem;

/// Every test leaves the process-wide injector clean.
class Resilience : public ::testing::Test {
protected:
    void SetUp() override { flow::fault::Injector::instance().disarm_all(); }
    void TearDown() override { flow::fault::Injector::instance().disarm_all(); }

    fs::path fresh_dir(const std::string& name) {
        fs::path dir = fs::path(testing::TempDir()) / ("uhcg_res_" + name);
        fs::remove_all(dir);
        fs::create_directories(dir);
        return dir;
    }
};

// --- transient classification -------------------------------------------------------

TEST_F(Resilience, TransientClassificationCoversRetryableCodesOnly) {
    EXPECT_TRUE(diag::is_transient(diag::codes::kFlowPassTimeout));
    EXPECT_TRUE(diag::is_transient(diag::codes::kFlowTransient));
    EXPECT_TRUE(diag::is_transient(diag::codes::kSimWatchdog));
    EXPECT_TRUE(diag::is_transient(diag::codes::kKpnWatchdog));
    // Input defects reproduce on retry — never transient.
    EXPECT_FALSE(diag::is_transient(diag::codes::kXmiBadValue));
    EXPECT_FALSE(diag::is_transient(diag::codes::kFsmInvalid));
    EXPECT_FALSE(diag::is_transient(diag::codes::kFlowQuarantine));
}

TEST_F(Resilience, RetryPolicyBackoffIsDeterministicAndCapped) {
    flow::RetryPolicy policy;
    policy.backoff_ms = 100;
    policy.backoff_factor = 2.0;
    policy.backoff_cap_ms = 350;
    EXPECT_EQ(policy.delay_for_retry(0), 100u);
    EXPECT_EQ(policy.delay_for_retry(1), 200u);
    EXPECT_EQ(policy.delay_for_retry(2), 350u);  // capped, not 400
    EXPECT_EQ(policy.delay_for_retry(9), 350u);
    flow::RetryPolicy immediate;
    immediate.max_retries = 3;
    EXPECT_EQ(immediate.delay_for_retry(2), 0u);  // backoff_ms == 0
}

// --- transactional outputs ----------------------------------------------------------

TEST_F(Resilience, OutputTransactionCommitPublishesRollbackDoesNot) {
    fs::path dir = fresh_dir("txout");
    {
        flow::OutputTransaction tx(dir);
        tx.write("kept.txt", "v1");
        EXPECT_FALSE(fs::exists(dir / "kept.txt"));  // staged, not visible
        EXPECT_EQ(tx.commit(), 1u);
    }
    EXPECT_TRUE(fs::exists(dir / "kept.txt"));
    {
        flow::OutputTransaction tx(dir);
        tx.write("torn.txt", "never");
        // No commit: destructor rolls back.
    }
    EXPECT_FALSE(fs::exists(dir / "torn.txt"));
    EXPECT_TRUE(fs::exists(dir / "kept.txt"));  // previous commit untouched
    EXPECT_FALSE(fs::exists(dir / ".uhcg-stage"));
}

TEST_F(Resilience, StaleStageFromKilledRunIsSwept) {
    fs::path dir = fresh_dir("stale");
    fs::create_directories(dir / ".uhcg-stage");
    std::ofstream(dir / ".uhcg-stage" / "debris.mdl") << "half-written";
    flow::OutputTransaction tx(dir);
    EXPECT_FALSE(fs::exists(dir / ".uhcg-stage" / "debris.mdl"));
    tx.write("good.txt", "whole");
    tx.commit();
    EXPECT_FALSE(fs::exists(dir / "debris.mdl"));  // debris never committed
    EXPECT_TRUE(fs::exists(dir / "good.txt"));
}

TEST_F(Resilience, WriteFileAtomicReplacesWithoutTemporaryResidue) {
    fs::path dir = fresh_dir("atomic");
    fs::path target = dir / "out.json";
    flow::write_file_atomic(target, "first");
    flow::write_file_atomic(target, "second");
    std::ifstream in(target);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "second");
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++entries;
    EXPECT_EQ(entries, 1u);  // no .uhcg-tmp left behind
}

// --- checkpoint store ---------------------------------------------------------------

TEST_F(Resilience, CheckpointRoundTripsFilesByteExactly) {
    flow::CheckpointStore store(fresh_dir("ckpt"));
    flow::StrategyResult result;
    result.strategy = "fsm-c";
    result.subsystem = "control:Elevator";
    result.files.push_back({"a.c", "int main(){}\n"});
    result.files.push_back({"b.h", "binary\0ish\ndata \"quoted\"\n"});
    std::string key = flow::CheckpointStore::key("<model/>", "opts", "fsm-c",
                                                "control:Elevator");
    store.save(key, result);
    flow::StrategyResult loaded;
    ASSERT_TRUE(store.load(key, loaded));
    ASSERT_EQ(loaded.files.size(), 2u);
    EXPECT_EQ(loaded.strategy, result.strategy);
    EXPECT_EQ(loaded.subsystem, result.subsystem);
    EXPECT_EQ(loaded.files[0].name, "a.c");
    EXPECT_EQ(loaded.files[0].contents, result.files[0].contents);
    EXPECT_EQ(loaded.files[1].contents, result.files[1].contents);
    store.drop(key);
    EXPECT_FALSE(store.load(key, loaded));
}

TEST_F(Resilience, CheckpointKeyChangesWithEveryInput) {
    std::string base = flow::CheckpointStore::key("m", "o", "s", "u");
    EXPECT_NE(base, flow::CheckpointStore::key("m2", "o", "s", "u"));
    EXPECT_NE(base, flow::CheckpointStore::key("m", "o2", "s", "u"));
    EXPECT_NE(base, flow::CheckpointStore::key("m", "o", "s2", "u"));
    EXPECT_NE(base, flow::CheckpointStore::key("m", "o", "s", "u2"));
    EXPECT_EQ(base, flow::CheckpointStore::key("m", "o", "s", "u"));
}

// A run hashes its model once and chains every unit's key from that hash;
// the persisted key is the one the model bytes give.
TEST_F(Resilience, CheckpointKeyFromTheModelHashIsPinned) {
    EXPECT_EQ(flow::CheckpointStore::key("m", "o", "s", "u"),
              "s-u-8e2506c4563f3487");
    EXPECT_EQ(flow::CheckpointStore::key(core::fnv1a("m"), "o", "s", "u"),
              "s-u-8e2506c4563f3487");
}

TEST_F(Resilience, CorruptCheckpointIsAMissNotAnError) {
    fs::path dir = fresh_dir("ckpt_bad");
    flow::CheckpointStore store(dir);
    std::string key = flow::CheckpointStore::key("m", "o", "s", "u");
    std::ofstream(dir / (key + ".ckpt")) << "uhcg-flow-checkpoint-v1\ngarbage";
    flow::StrategyResult loaded;
    EXPECT_FALSE(store.load(key, loaded));
    std::ofstream(dir / (key + ".ckpt")) << "other-schema\n";
    EXPECT_FALSE(store.load(key, loaded));
}

// --- checkpoint GC ------------------------------------------------------------------

TEST_F(Resilience, CheckpointPruneEnforcesCountBoundOldestFirst) {
    fs::path dir = fresh_dir("ckpt_gc_count");
    flow::CheckpointStore store(dir);
    flow::StrategyResult result;
    result.strategy = "s";
    for (int i = 0; i < 5; ++i) {
        std::string key = flow::CheckpointStore::key(
            "m", "o", "s", "u" + std::to_string(i));
        store.save(key, result);
        // Distinct mtimes: u0 is oldest, u4 newest.
        fs::last_write_time(dir / (key + ".ckpt"),
                            fs::file_time_type::clock::now() -
                                std::chrono::seconds(100 - i));
    }
    flow::CheckpointStore::PruneOptions gc;
    gc.max_count = 2;
    flow::CheckpointStore::PruneResult pruned = store.prune(gc);
    EXPECT_EQ(pruned.scanned, 5u);
    EXPECT_EQ(pruned.pruned, 3u);
    // The two newest checkpoints survive and still load.
    flow::StrategyResult loaded;
    EXPECT_TRUE(store.load(flow::CheckpointStore::key("m", "o", "s", "u4"),
                           loaded));
    EXPECT_TRUE(store.load(flow::CheckpointStore::key("m", "o", "s", "u3"),
                           loaded));
    EXPECT_FALSE(store.load(flow::CheckpointStore::key("m", "o", "s", "u0"),
                            loaded));
}

TEST_F(Resilience, CheckpointPruneEnforcesAgeBound) {
    fs::path dir = fresh_dir("ckpt_gc_age");
    flow::CheckpointStore store(dir);
    flow::StrategyResult result;
    result.strategy = "s";
    for (int i = 0; i < 4; ++i)
        store.save(flow::CheckpointStore::key("m", "o", "s",
                                              "u" + std::to_string(i)),
                   result);
    // Age two of them far past any TTL.
    for (int i = 0; i < 2; ++i) {
        std::string key = flow::CheckpointStore::key("m", "o", "s",
                                                     "u" + std::to_string(i));
        fs::last_write_time(dir / (key + ".ckpt"),
                            fs::file_time_type::clock::now() -
                                std::chrono::hours(10));
    }
    flow::CheckpointStore::PruneOptions gc;
    gc.max_age_seconds = 3600;
    flow::CheckpointStore::PruneResult pruned = store.prune(gc);
    EXPECT_EQ(pruned.scanned, 4u);
    EXPECT_EQ(pruned.pruned, 2u);
}

TEST_F(Resilience, CheckpointPruneIsANoopWithoutBoundsOrDirectory) {
    flow::CheckpointStore store(fresh_dir("ckpt_gc_noop"));
    flow::CheckpointStore::PruneResult nothing = store.prune({});
    EXPECT_EQ(nothing.pruned, 0u);
    // A directory that never existed scans zero files instead of throwing.
    flow::CheckpointStore missing(fs::path(testing::TempDir()) /
                                  "uhcg_gc_never_created");
    flow::CheckpointStore::PruneOptions gc;
    gc.max_count = 1;
    flow::CheckpointStore::PruneResult result = missing.prune(gc);
    EXPECT_EQ(result.scanned, 0u);
    EXPECT_EQ(result.pruned, 0u);
}

// --- budget + retry in the pass manager ---------------------------------------------

TEST_F(Resilience, WallBudgetOverrunFailsWithTransientTimeout) {
    flow::PassManager pm("budget");
    pm.add(flow::Pass("slow", [](flow::PassContext&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }));
    pm.set_pass_budget({5});
    flow::ArtifactStore store;
    diag::DiagnosticEngine engine;
    flow::FlowTrace trace;
    auto run = pm.run(store, engine, &trace, "g");
    EXPECT_FALSE(run.ok);
    EXPECT_GE(engine.count_code(diag::codes::kFlowPassTimeout), 1u)
        << engine.render_text();
    ASSERT_EQ(trace.entries().size(), 1u);
    EXPECT_EQ(trace.entries()[0].budget_ms, 5u);
    EXPECT_EQ(trace.entries()[0].attempts, 1u);
}

TEST_F(Resilience, TimeoutRetriesUpToPolicyThenFails) {
    flow::PassManager pm("budget");
    pm.add(flow::Pass("slow", [](flow::PassContext&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }));
    pm.set_pass_budget({5});
    flow::RetryPolicy retry;
    retry.max_retries = 2;  // immediate retries (backoff_ms = 0)
    pm.set_retry_policy(retry);
    flow::ArtifactStore store;
    diag::DiagnosticEngine engine;
    flow::FlowTrace trace;
    auto run = pm.run(store, engine, &trace, "g");
    EXPECT_FALSE(run.ok);  // persistently slow: still fails after retries
    ASSERT_EQ(trace.entries().size(), 1u);
    EXPECT_EQ(trace.entries()[0].attempts, 3u);  // 1 + 2 retries
    EXPECT_GE(engine.count_code(diag::codes::kFlowRetry), 2u);
}

TEST_F(Resilience, TransientFaultHealsWithinRetryBudget) {
    flow::fault::Injector::instance().arm("g/flaky",
                                          flow::fault::Kind::Transient, 1);
    flow::PassManager pm("retry");
    bool body_ran = false;
    pm.add(flow::Pass("flaky",
                      [&body_ran](flow::PassContext&) { body_ran = true; }));
    flow::RetryPolicy retry;
    retry.max_retries = 2;
    pm.set_retry_policy(retry);
    flow::ArtifactStore store;
    diag::DiagnosticEngine engine;
    flow::FlowTrace trace;
    auto run = pm.run(store, engine, &trace, "g");
    EXPECT_TRUE(run.ok) << engine.render_text();
    EXPECT_TRUE(body_ran);
    ASSERT_EQ(trace.entries().size(), 1u);
    EXPECT_EQ(trace.entries()[0].attempts, 2u);
}

TEST_F(Resilience, PermanentErrorsNeverRetry) {
    flow::fault::Injector::instance().arm("g/broken", flow::fault::Kind::Fatal);
    flow::PassManager pm("noretry");
    pm.add(flow::Pass("broken", [](flow::PassContext&) {}));
    flow::RetryPolicy retry;
    retry.max_retries = 5;
    pm.set_retry_policy(retry);
    flow::ArtifactStore store;
    diag::DiagnosticEngine engine;
    flow::FlowTrace trace;
    auto run = pm.run(store, engine, &trace, "g");
    EXPECT_FALSE(run.ok);
    ASSERT_EQ(trace.entries().size(), 1u);
    EXPECT_EQ(trace.entries()[0].attempts, 1u);  // Fatal is not transient
}

// --- the chaos sweep ----------------------------------------------------------------

using FileMap = std::map<std::pair<std::string, std::string>,
                         std::map<std::string, std::string>>;

FileMap file_map(const flow::GenerateResult& result) {
    FileMap out;
    for (const flow::StrategyResult& sr : result.results) {
        if (!sr.ok) continue;
        auto& files = out[{sr.strategy, sr.subsystem}];
        for (const flow::GeneratedFile& f : sr.files) files[f.name] = f.contents;
    }
    return out;
}

flow::GenerateResult run_generate(const uml::Model& model,
                                  diag::DiagnosticEngine& engine,
                                  flow::GenerateOptions options = {}) {
    options.with_kpn = true;
    return flow::generate(model, options, engine);
}

TEST_F(Resilience, ChaosSweepQuarantinesOnlyTheFaultedUnit) {
    uml::Model model = cases::mixed_model();
    diag::DiagnosticEngine baseline_engine;
    flow::GenerateResult baseline = run_generate(model, baseline_engine);
    ASSERT_EQ(baseline.status, flow::GenerateStatus::Ok)
        << baseline_engine.render_text();
    FileMap baseline_files = file_map(baseline);
    ASSERT_GE(baseline_files.size(), 4u);  // fsm-c, caam, threads, kpn

    // Every pass of every strategy, under both fault kinds: 38 distinct
    // injection points (the acceptance bar is >= 25). A fault in the
    // shared CAAM prep (caam.*/sim.*) quarantines all three caam-family
    // emitters; a fault in one emit pass quarantines only that emitter.
    const char* kSites[] = {
        "flow.partition", "fsm.flatten",   "fsm.emit-c",    "uml.wellformed",
        "core.comm",      "core.allocate", "core.mapping",  "caam.lift",
        "caam.channels",  "caam.delays",   "caam.validate", "sim.schedulability",
        "sim.estimate",   "simulink.emit", "caam.emit-c",   "caam.emit-dot",
        "codegen.threads", "kpn.map",      "kpn.validate"};
    const flow::fault::Kind kKinds[] = {flow::fault::Kind::Throw,
                                        flow::fault::Kind::Fatal};
    std::size_t injection_points = 0;
    for (const char* site : kSites)
        for (flow::fault::Kind kind : kKinds) {
            SCOPED_TRACE(std::string(site) + "/" +
                         (kind == flow::fault::Kind::Throw ? "throw" : "fatal"));
            auto& injector = flow::fault::Injector::instance();
            injector.disarm_all();
            injector.arm(site, kind);
            ++injection_points;

            diag::DiagnosticEngine engine;
            flow::GenerateResult result = run_generate(model, engine);

            if (std::string(site) == "flow.partition") {
                // The partitioner is stage 1 of the whole run: no
                // strategies dispatch, the run is Failed, not Partial.
                EXPECT_EQ(result.status, flow::GenerateStatus::Failed);
                continue;
            }
            EXPECT_EQ(result.status, flow::GenerateStatus::Partial);
            EXPECT_FALSE(result.quarantined.empty());
            // Only the faulted unit(s) are quarantined, and no quarantined
            // unit ships files.
            for (const flow::StrategyResult& sr : result.results)
                if (!sr.ok) EXPECT_TRUE(sr.files.empty());
            // Every surviving unit's files are byte-identical to the
            // fault-free run.
            for (const auto& [unit, files] : file_map(result)) {
                auto it = baseline_files.find(unit);
                ASSERT_NE(it, baseline_files.end())
                    << unit.first << ":" << unit.second;
                EXPECT_EQ(files, it->second)
                    << unit.first << ":" << unit.second;
            }
            // The manifest is well-formed and names the quarantined unit.
            std::string manifest = flow::to_manifest_json(result);
            EXPECT_NE(manifest.find("uhcg-flow-manifest-v1"), std::string::npos);
            EXPECT_NE(manifest.find("\"status\": \"partial\""),
                      std::string::npos);
            for (const flow::QuarantineRecord& q : result.quarantined) {
                EXPECT_NE(manifest.find(q.strategy), std::string::npos);
                EXPECT_FALSE(q.error_codes.empty()) << q.strategy;
            }
        }
    EXPECT_GE(injection_points, 25u);
}

TEST_F(Resilience, QuarantineDoesNotCrossContaminateLaterSubsystems) {
    // The mixed model partitions into control:Elevator (first) and threads
    // (second): failing the first must leave every strategy of the second
    // intact — the regression the per-pass problem gating guards against.
    uml::Model model = cases::mixed_model();
    flow::fault::Injector::instance().arm("fsm.flatten",
                                          flow::fault::Kind::Fatal);
    diag::DiagnosticEngine engine;
    flow::GenerateResult result = run_generate(model, engine);
    EXPECT_EQ(result.status, flow::GenerateStatus::Partial);
    ASSERT_EQ(result.quarantined.size(), 1u);
    EXPECT_EQ(result.quarantined[0].strategy, "fsm-c");
    EXPECT_EQ(result.quarantined[0].subsystem, "control:Elevator");
    for (const flow::StrategyResult& sr : result.results)
        if (sr.strategy != "fsm-c")
            EXPECT_TRUE(sr.ok) << sr.strategy << ":" << sr.subsystem;
}

// --- parallel dispatch chaos --------------------------------------------------------

// A fault inside a worker unit must quarantine only that unit at any
// --gen-jobs, and the whole run — quarantine set, survivors' bytes,
// manifest — must match the serial run exactly.
TEST_F(Resilience, ParallelChaosQuarantinesOnlyTheFaultedUnitAtAnyJobs) {
    uml::Model model = cases::mixed_model();
    const char* kSites[] = {"fsm.flatten", "caam.lift", "caam.emit-c",
                            "simulink.emit", "codegen.threads",
                            "kpn.validate"};
    for (const char* site : kSites) {
        SCOPED_TRACE(site);
        auto& injector = flow::fault::Injector::instance();

        // Serial reference under the same fault.
        injector.disarm_all();
        injector.arm(site, flow::fault::Kind::Fatal);
        diag::DiagnosticEngine serial_engine;
        flow::GenerateResult serial = run_generate(model, serial_engine);
        ASSERT_EQ(serial.status, flow::GenerateStatus::Partial);
        const std::string serial_manifest = flow::to_manifest_json(serial);
        const FileMap serial_files = file_map(serial);

        for (std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
            SCOPED_TRACE("gen_jobs=" + std::to_string(jobs));
            injector.disarm_all();
            injector.arm(site, flow::fault::Kind::Fatal);
            flow::GenerateOptions options;
            options.gen_jobs = jobs;
            diag::DiagnosticEngine engine;
            flow::GenerateResult result =
                run_generate(model, engine, options);
            EXPECT_EQ(result.status, flow::GenerateStatus::Partial);
            EXPECT_EQ(flow::to_manifest_json(result), serial_manifest);
            EXPECT_EQ(file_map(result), serial_files);
            EXPECT_EQ(engine.render_text(), serial_engine.render_text());
        }
    }
}

// Throw-kind faults exercise the worker-side exception guard: the throw
// happens on a pool thread and must be contained to its unit, never
// escape through parallel_for.
TEST_F(Resilience, ParallelWorkerThrowIsContainedToItsUnit) {
    uml::Model model = cases::mixed_model();
    flow::fault::Injector::instance().arm("caam.emit-dot",
                                          flow::fault::Kind::Throw);
    flow::GenerateOptions options;
    options.gen_jobs = 4;
    diag::DiagnosticEngine engine;
    flow::GenerateResult result = run_generate(model, engine, options);
    EXPECT_EQ(result.status, flow::GenerateStatus::Partial);
    ASSERT_EQ(result.quarantined.size(), 1u);
    EXPECT_EQ(result.quarantined[0].strategy, "caam-dot");
    for (const flow::StrategyResult& sr : result.results)
        if (sr.strategy != "caam-dot")
            EXPECT_TRUE(sr.ok) << sr.strategy << ":" << sr.subsystem;
}

// --- checkpoint/resume through generate() -------------------------------------------

TEST_F(Resilience, ResumeReplaysCheckpointsByteIdentically) {
    uml::Model model = cases::mixed_model();
    std::string model_bytes = uml::to_xmi_string(model);
    fs::path ckpt = fresh_dir("resume");

    flow::GenerateOptions options;
    options.with_kpn = true;
    options.resilience.checkpoint_dir = ckpt.string();
    options.resilience.model_bytes = model_bytes;

    // Run 1: the fsm branch faults mid-run — the surviving units still
    // checkpoint (the "killed after some units completed" shape).
    flow::fault::Injector::instance().arm("fsm.flatten",
                                          flow::fault::Kind::Throw);
    diag::DiagnosticEngine first_engine;
    flow::GenerateResult first = flow::generate(model, options, first_engine);
    EXPECT_EQ(first.status, flow::GenerateStatus::Partial);
    flow::fault::Injector::instance().disarm_all();

    // Run 2 with --resume semantics: completed units replay from their
    // checkpoints, the faulted unit re-runs and now succeeds.
    options.resilience.resume = true;
    diag::DiagnosticEngine second_engine;
    flow::GenerateResult second = flow::generate(model, options, second_engine);
    EXPECT_EQ(second.status, flow::GenerateStatus::Ok)
        << second_engine.render_text();
    std::size_t cached = 0;
    for (const flow::StrategyResult& sr : second.results) {
        if (sr.cached) ++cached;
        if (sr.strategy == "fsm-c") EXPECT_FALSE(sr.cached);
    }
    EXPECT_GE(cached, 3u);  // caam, threads, kpn replayed

    // Byte-identity: the resumed run equals a fresh fault-free run.
    diag::DiagnosticEngine fresh_engine;
    flow::GenerateResult fresh = run_generate(model, fresh_engine);
    EXPECT_EQ(file_map(second), file_map(fresh));
    EXPECT_GE(second_engine.count_code(diag::codes::kFlowCheckpoint), 3u);
}

TEST_F(Resilience, ResumeIgnoresCheckpointsWhenInputsChange) {
    uml::Model model = cases::mixed_model();
    fs::path ckpt = fresh_dir("stale_ckpt");
    flow::GenerateOptions options;
    options.with_kpn = true;
    options.resilience.checkpoint_dir = ckpt.string();
    options.resilience.model_bytes = uml::to_xmi_string(model);
    diag::DiagnosticEngine first_engine;
    (void)flow::generate(model, options, first_engine);

    // Same checkpoint dir, "edited" model bytes: every key misses.
    options.resilience.resume = true;
    options.resilience.model_bytes += "<!-- edited -->";
    diag::DiagnosticEngine second_engine;
    flow::GenerateResult second = flow::generate(model, options, second_engine);
    EXPECT_EQ(second.status, flow::GenerateStatus::Ok);
    for (const flow::StrategyResult& sr : second.results)
        EXPECT_FALSE(sr.cached) << sr.strategy;
}

TEST_F(Resilience, ManifestListsEveryStrategyAndQuarantine) {
    uml::Model model = cases::mixed_model();
    flow::fault::Injector::instance().arm("codegen.threads",
                                          flow::fault::Kind::Fatal);
    diag::DiagnosticEngine engine;
    flow::GenerateResult result = run_generate(model, engine);
    std::string manifest = flow::to_manifest_json(result);
    EXPECT_NE(manifest.find("\"schema\": \"uhcg-flow-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"cpp-threads\""), std::string::npos);
    EXPECT_NE(manifest.find("\"quarantined\""), std::string::npos);
    EXPECT_NE(manifest.find(diag::codes::kFlowQuarantine), std::string::npos);
}

// --- stale-stage garbage collection -------------------------------------------------

TEST_F(Resilience, StaleStageGcPrunesOldStagesOnly) {
    fs::path root = fresh_dir("stale_gc");
    fs::create_directories(root / "old" / ".uhcg-stage");
    std::ofstream(root / "old" / ".uhcg-stage" / "debris") << "x";
    fs::create_directories(root / "young" / ".uhcg-stage");
    // Age the first stage past any reasonable TTL.
    fs::last_write_time(root / "old" / ".uhcg-stage",
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(2));
    flow::StaleStageStats stats = flow::prune_stale_stages(root, 3600);
    EXPECT_EQ(stats.scanned, 2u);
    EXPECT_EQ(stats.pruned, 1u);
    EXPECT_FALSE(fs::exists(root / "old" / ".uhcg-stage"));
    EXPECT_TRUE(fs::exists(root / "young" / ".uhcg-stage"));  // age-gated
}

TEST_F(Resilience, StaleStageGcNeverDescendsIntoAStage) {
    fs::path root = fresh_dir("stale_gc_nest");
    // A stage containing something named like a stage: the inner dir is
    // the *content* of a crashed transaction, not an independent stage —
    // pruning the outer one must count once, and a young outer stage
    // must shield its contents entirely.
    fs::create_directories(root / ".uhcg-stage" / ".uhcg-stage");
    flow::StaleStageStats young = flow::prune_stale_stages(root, 3600);
    EXPECT_EQ(young.scanned, 1u);
    EXPECT_EQ(young.pruned, 0u);
    fs::last_write_time(root / ".uhcg-stage",
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(2));
    flow::StaleStageStats old_stats = flow::prune_stale_stages(root, 3600);
    EXPECT_EQ(old_stats.scanned, 1u);
    EXPECT_EQ(old_stats.pruned, 1u);
    EXPECT_FALSE(fs::exists(root / ".uhcg-stage"));
}

TEST_F(Resilience, StaleStageGcHandlesMissingRoot) {
    flow::StaleStageStats stats = flow::prune_stale_stages(
        fs::path(testing::TempDir()) / "uhcg_res_does_not_exist", 3600);
    EXPECT_EQ(stats.scanned, 0u);
    EXPECT_EQ(stats.pruned, 0u);
}

// --- campaign chaos -----------------------------------------------------------------
//
// The campaign's own crash sites, exercised the same way the flow's pass
// sites are: arm a Throw injection (the chaos stand-in for kill -9 at
// that instant), watch the process "die", resume, and require the final
// campaign tree — per-job outputs, aggregate report, failure manifest —
// to be byte-identical to a run that was never interrupted.

namespace campaign_chaos {

/// Two models (threads-only shapes keep jobs fast), one cyclic so every
/// campaign in the suite also crosses the quarantine path.
fs::path build_corpus(const fs::path& dir) {
    campaign::CorpusOptions options;
    options.models = 2;
    options.seed = 5;
    options.min_threads = 3;
    options.max_threads = 4;
    options.feedback_cycles = 1;
    campaign::write_corpus(options, dir);
    return dir;
}

campaign::Manifest manifest_for(const fs::path& corpus) {
    campaign::Manifest manifest;
    manifest.models = {corpus.string()};
    manifest.strategies = {"generate", "explore"};
    manifest.backends = {"dynamic-fifo"};
    manifest.cost_models.push_back({});
    manifest.max_processors = 3;
    manifest.random_samples = 1;
    return manifest;
}

std::map<std::string, std::string> tree(const fs::path& root) {
    std::map<std::string, std::string> files;
    if (!fs::exists(root)) return files;
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file()) continue;
        std::ifstream in(entry.path(), std::ios::binary);
        files[fs::relative(entry.path(), root).string()] =
            std::string((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    }
    return files;
}

}  // namespace campaign_chaos

class CampaignChaos : public Resilience,
                      public ::testing::WithParamInterface<const char*> {};

TEST_P(CampaignChaos, CrashAtAnySiteResumesByteIdentically) {
    namespace cc = campaign_chaos;
    const std::string site = GetParam();
    fs::path corpus = cc::build_corpus(fresh_dir("cc_corpus_" + site));
    campaign::Manifest manifest = cc::manifest_for(corpus);

    // Reference: the same campaign, never interrupted.
    campaign::CampaignOptions reference;
    reference.out_dir = fresh_dir("cc_ref_" + site);
    reference.jobs = 1;
    diag::DiagnosticEngine reference_engine;
    campaign::CampaignResult expected =
        campaign::run_campaign(manifest, reference, reference_engine);
    ASSERT_EQ(expected.status, campaign::CampaignStatus::Partial)
        << "corpus must exercise both ok and quarantined jobs";

    // Crash at the armed site, then resume.
    campaign::CampaignOptions options;
    options.out_dir = fresh_dir("cc_out_" + site);
    options.jobs = 1;
    flow::fault::Injector::instance().arm(site, flow::fault::Kind::Throw, 1);
    diag::DiagnosticEngine crash_engine;
    EXPECT_THROW(campaign::run_campaign(manifest, options, crash_engine),
                 flow::fault::CrashInjected);
    flow::fault::Injector::instance().disarm_all();

    options.resume = true;
    diag::DiagnosticEngine resume_engine;
    campaign::CampaignResult resumed =
        campaign::run_campaign(manifest, options, resume_engine);
    EXPECT_EQ(resumed.status, expected.status);
    EXPECT_EQ(resumed.jobs_ok, expected.jobs_ok);
    EXPECT_EQ(resumed.jobs_quarantined, expected.jobs_quarantined);
    EXPECT_EQ(cc::tree(options.out_dir / "jobs"),
              cc::tree(reference.out_dir / "jobs"));
    for (const char* artifact :
         {"campaign-report.json", "campaign-manifest.json"})
        EXPECT_EQ(cc::tree(options.out_dir)[artifact],
                  cc::tree(reference.out_dir)[artifact])
            << artifact;
}

INSTANTIATE_TEST_SUITE_P(Sites, CampaignChaos,
                         ::testing::Values("campaign.dispatch",
                                           "campaign.job",
                                           "campaign.journal",
                                           "campaign.aggregate"),
                         [](const auto& info) {
                             std::string name = info.param;
                             for (char& c : name)
                                 if (c == '.') c = '_';
                             return name;
                         });

TEST_F(Resilience, CampaignTornJournalLineMeansReRunNotCorruption) {
    namespace cc = campaign_chaos;
    fs::path corpus = cc::build_corpus(fresh_dir("cc_torn_corpus"));
    campaign::Manifest manifest = cc::manifest_for(corpus);
    campaign::CampaignOptions options;
    options.out_dir = fresh_dir("cc_torn_out");
    options.jobs = 1;
    diag::DiagnosticEngine engine;
    campaign::CampaignResult first =
        campaign::run_campaign(manifest, options, engine);
    std::map<std::string, std::string> reference =
        cc::tree(options.out_dir / "jobs");

    // Tear the journal's final line mid-byte, as a kill -9 inside the
    // append's write(2) would.
    fs::path journal = options.out_dir / "campaign-journal.jsonl";
    std::ifstream in(journal, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(text.size(), 20u);
    std::ofstream(journal, std::ios::binary)
        << text.substr(0, text.size() - 12);

    options.resume = true;
    diag::DiagnosticEngine resume_engine;
    campaign::CampaignResult resumed =
        campaign::run_campaign(manifest, options, resume_engine);
    EXPECT_EQ(resumed.status, first.status);
    EXPECT_EQ(resumed.jobs_resumed, resumed.jobs_total - 1);  // one re-ran
    EXPECT_EQ(cc::tree(options.out_dir / "jobs"), reference);
}

TEST_F(Resilience, CampaignQuarantinesCyclicModelWithStructuredCode) {
    namespace cc = campaign_chaos;
    fs::path corpus = cc::build_corpus(fresh_dir("cc_cyclic_corpus"));
    campaign::Manifest manifest = cc::manifest_for(corpus);
    campaign::CampaignOptions options;
    options.out_dir = fresh_dir("cc_cyclic_out");
    options.jobs = 1;
    diag::DiagnosticEngine engine;
    campaign::CampaignResult result =
        campaign::run_campaign(manifest, options, engine);
    EXPECT_EQ(result.status, campaign::CampaignStatus::Partial);
    std::size_t cyclic_quarantines = 0;
    for (const campaign::JournalEntry& entry : result.outcomes)
        if (entry.status == "quarantined") {
            EXPECT_EQ(entry.error_code, diag::codes::kDseModel);
            EXPECT_FALSE(entry.error_message.empty());
            ++cyclic_quarantines;
        }
    EXPECT_EQ(cyclic_quarantines, 1u);  // the cyclic model's explore job
    // Generate still succeeds on the cyclic model (delay insertion), so
    // the same model contributes ok jobs too — isolation, not contagion.
    EXPECT_EQ(result.jobs_ok, result.jobs_total - 1);
}

}  // namespace
