// Campaign subsystem tests: manifest parsing/validation, deterministic
// expansion, the synthetic corpus generator, the hash-guarded checkpoint
// journal and the supervised runner's quarantine/resume contract.
//
// The chaos-side of the story — crashes injected at the campaign's
// dispatch/job/journal/aggregate sites and the byte-identical resume that
// must follow — lives with the rest of the chaos suite in
// test_resilience.cpp.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/corpus.hpp"
#include "campaign/journal.hpp"
#include "campaign/manifest.hpp"
#include "flow/fault.hpp"
#include "obs/json.hpp"
#include "uml/xmi.hpp"

namespace {

using namespace uhcg;
namespace fs = std::filesystem;

class Campaign : public ::testing::Test {
protected:
    void SetUp() override { flow::fault::Injector::instance().disarm_all(); }
    void TearDown() override { flow::fault::Injector::instance().disarm_all(); }

    fs::path fresh_dir(const std::string& name) {
        fs::path dir = fs::path(testing::TempDir()) / ("uhcg_camp_" + name);
        fs::remove_all(dir);
        fs::create_directories(dir);
        return dir;
    }

    /// A tiny deterministic corpus: `models` models, last one cyclic when
    /// `cyclic` is set.
    fs::path small_corpus(const std::string& name, std::size_t models,
                          bool cyclic) {
        fs::path dir = fresh_dir(name);
        campaign::CorpusOptions options;
        options.models = models;
        options.seed = 11;
        options.min_threads = 3;
        options.max_threads = 4;
        options.feedback_cycles = cyclic ? 1 : 0;
        campaign::write_corpus(options, dir);
        return dir;
    }

    campaign::Manifest small_manifest(const fs::path& corpus) {
        campaign::Manifest manifest;
        manifest.models = {corpus.string()};
        manifest.strategies = {"generate", "explore"};
        manifest.backends = {"dynamic-fifo", "analytic"};
        manifest.cost_models.push_back({});
        manifest.max_processors = 3;
        manifest.random_samples = 1;
        return manifest;
    }

    static std::string slurp(const fs::path& path) {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    }

    /// Every regular file under `root`, keyed by relative path.
    static std::map<std::string, std::string> tree(const fs::path& root) {
        std::map<std::string, std::string> files;
        for (const fs::directory_entry& entry :
             fs::recursive_directory_iterator(root))
            if (entry.is_regular_file())
                files[fs::relative(entry.path(), root).string()] =
                    slurp(entry.path());
        return files;
    }
};

// --- manifest parsing ---------------------------------------------------------------

TEST_F(Campaign, ManifestParsesFieldsAndDefaults) {
    diag::DiagnosticEngine engine;
    campaign::Manifest m = campaign::parse_manifest(R"({
        "schema": "uhcg-campaign-v1",
        "models": ["a.xmi", "b.xmi"],
        "strategies": "explore",
        "backends": ["analytic"],
        "cost_models": [{"name": "slow", "gfifo_cost_per_byte": 40,
                         "shared_bus": false}],
        "explore": {"max_processors": 4, "random_samples": 2},
        "generate": {"with_kpn": true, "iterations": 7}
    })", engine);
    ASSERT_FALSE(engine.has_errors());
    EXPECT_EQ(m.models.size(), 2u);
    ASSERT_EQ(m.strategies.size(), 1u);  // scalar accepted as 1-elem list
    EXPECT_EQ(m.strategies[0], "explore");
    ASSERT_EQ(m.backends.size(), 1u);
    EXPECT_EQ(m.backends[0], "analytic");
    ASSERT_EQ(m.cost_models.size(), 1u);
    EXPECT_EQ(m.cost_models[0].name, "slow");
    EXPECT_EQ(m.cost_models[0].params.gfifo_cost_per_byte, 40.0);
    EXPECT_FALSE(m.cost_models[0].params.shared_bus);
    EXPECT_EQ(m.max_processors, 4u);
    EXPECT_EQ(m.random_samples, 2u);
    EXPECT_TRUE(m.with_kpn);
    EXPECT_EQ(m.iterations, 7u);

    diag::DiagnosticEngine defaults_engine;
    campaign::Manifest d = campaign::parse_manifest(
        R"({"schema": "uhcg-campaign-v1", "models": "one.xmi"})",
        defaults_engine);
    ASSERT_FALSE(defaults_engine.has_errors());
    EXPECT_EQ(d.strategies.size(), 2u);  // both strategies by default
    ASSERT_EQ(d.backends.size(), 1u);
    EXPECT_EQ(d.backends[0], "dynamic-fifo");
    EXPECT_EQ(d.cost_models.size(), 1u);
    EXPECT_EQ(d.cost_models[0].name, "default");
}

TEST_F(Campaign, ManifestRejectsBadInputsWithStructuredErrors) {
    const char* bad[] = {
        "not json at all",
        R"({"schema": "wrong", "models": ["a"]})",
        R"({"schema": "uhcg-campaign-v1"})",  // models missing
        R"({"schema": "uhcg-campaign-v1", "models": []})",
        R"({"schema": "uhcg-campaign-v1", "models": "a",
            "strategies": ["mystery"]})",
        R"({"schema": "uhcg-campaign-v1", "models": "a",
            "backends": ["warp-drive"]})",
        // Only a front end's empty selector means the default backend; a
        // manifest spells every backend out.
        R"({"schema": "uhcg-campaign-v1", "models": "a", "backends": [""]})",
        R"({"schema": "uhcg-campaign-v1", "models": "a",
            "cost_models": [{"unknown_knob": 1}]})",
    };
    for (const char* text : bad) {
        diag::DiagnosticEngine engine;
        campaign::parse_manifest(text, engine);
        EXPECT_TRUE(engine.has_errors()) << text;
        EXPECT_GE(engine.count_code(diag::codes::kCampaignManifest), 1u)
            << text;
    }
}

TEST_F(Campaign, ManifestCountsMustBeIntegralAndInRange) {
    // Negatives were rejected before; fractions and out-of-range values
    // were truncated or cast with undefined behaviour.
    const char* bad[] = {
        R"("explore": {"max_processors": 2.5})",
        R"("explore": {"random_samples": 1e30})",
        R"("explore": {"max_processors": -1})",
        R"("generate": {"iterations": 0.5})",
        R"("generate": {"iterations": 1e300})",
    };
    for (const char* field : bad) {
        std::string text =
            std::string(R"({"schema": "uhcg-campaign-v1", "models": "a", )") +
            field + "}";
        diag::DiagnosticEngine engine;
        campaign::parse_manifest(text, engine);
        EXPECT_EQ(engine.count_code(diag::codes::kCampaignManifest), 1u)
            << text;
    }
    diag::DiagnosticEngine engine;
    campaign::Manifest m = campaign::parse_manifest(
        R"({"schema": "uhcg-campaign-v1", "models": "a",
            "explore": {"max_processors": 4, "random_samples": 0},
            "generate": {"iterations": 7}})",
        engine);
    EXPECT_FALSE(engine.has_errors());
    EXPECT_EQ(m.max_processors, 4u);
    EXPECT_EQ(m.random_samples, 0u);
    EXPECT_EQ(m.iterations, 7u);
}

TEST_F(Campaign, ManifestRejectsRemovedSdfBackend) {
    // The static-schedule backend is gone with no alias: a manifest naming
    // it fails validation with the shared unknown-backend text.
    diag::DiagnosticEngine engine;
    campaign::parse_manifest(R"({"schema": "uhcg-campaign-v1",
        "models": "a", "backends": ["sdf"]})", engine);
    ASSERT_EQ(engine.count_code(diag::codes::kCampaignManifest), 1u);
    EXPECT_NE(engine.diagnostics().front().message.find(
                  "unknown simulation backend 'sdf' (known: dynamic-fifo, "
                  "analytic)"),
              std::string::npos)
        << engine.diagnostics().front().message;
}

TEST_F(Campaign, ExpandIsDeterministicAndContentKeyed) {
    fs::path corpus = small_corpus("expand", 2, false);
    campaign::Manifest manifest = small_manifest(corpus);

    diag::DiagnosticEngine e1, e2;
    std::vector<campaign::JobSpec> a = campaign::expand(manifest, e1);
    std::vector<campaign::JobSpec> b = campaign::expand(manifest, e2);
    // 2 models × 2 strategies × 1 cost model × 2 backends.
    ASSERT_EQ(a.size(), 8u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].dir, b[i].dir);
        EXPECT_EQ(a[i].id.size(), 16u);
    }
    // Ids are pairwise distinct, and a model edit changes its jobs' ids.
    std::set<std::string> ids;
    for (const campaign::JobSpec& job : a) ids.insert(job.id);
    EXPECT_EQ(ids.size(), a.size());

    std::ofstream(corpus / "corpus-000.xmi", std::ios::app) << "<!-- -->";
    diag::DiagnosticEngine e3;
    std::vector<campaign::JobSpec> c = campaign::expand(manifest, e3);
    ASSERT_EQ(c.size(), a.size());
    EXPECT_NE(c[0].id, a[0].id);                    // edited model: new id
    EXPECT_EQ(c.back().id, a.back().id);            // untouched model: same
}

TEST_F(Campaign, ExpandCollapsesExactDuplicates) {
    fs::path corpus = small_corpus("dupes", 1, false);
    campaign::Manifest manifest = small_manifest(corpus);
    manifest.models.push_back(manifest.models[0]);  // same directory twice
    diag::DiagnosticEngine engine;
    std::vector<campaign::JobSpec> jobs = campaign::expand(manifest, engine);
    EXPECT_EQ(jobs.size(), 4u);  // not 8: duplicates collapsed
}

// --- synthetic corpus ---------------------------------------------------------------

TEST_F(Campaign, CorpusIsSeededDeterministicAndWellFormed) {
    campaign::CorpusOptions options;
    options.models = 3;
    options.seed = 99;
    options.min_threads = 3;
    options.max_threads = 5;
    options.feedback_cycles = 1;

    uml::Model once = campaign::synth_model(options, 0);
    uml::Model again = campaign::synth_model(options, 0);
    EXPECT_EQ(uml::to_xmi_string(once), uml::to_xmi_string(again));

    fs::path dir = fresh_dir("corpus");
    campaign::CorpusResult result = campaign::write_corpus(options, dir);
    ASSERT_EQ(result.models.size(), 3u);
    EXPECT_EQ(result.files_written, 4u);  // 3 XMI + index
    EXPECT_FALSE(result.models[0].cyclic);
    EXPECT_TRUE(result.models[2].cyclic);  // the last model closes a loop
    for (const campaign::CorpusModelInfo& info : result.models) {
        EXPECT_GE(info.threads, 3u);
        EXPECT_LE(info.threads, 5u);
        EXPECT_GE(info.channels, info.threads - 1);  // spanning condition
        // Each generated file round-trips through the XMI reader cleanly.
        diag::DiagnosticEngine engine;
        uml::Model model = uml::from_xmi_string(slurp(dir / info.file),
                                                engine, info.file);
        EXPECT_FALSE(engine.has_errors()) << info.file;
        EXPECT_EQ(model.threads().size(), info.threads) << info.file;
    }
    // The index is valid JSON carrying the advertised schema.
    obs::json::Value index;
    std::string error;
    ASSERT_TRUE(obs::json::parse(slurp(dir / "corpus-index.json"), index,
                                 error))
        << error;
    ASSERT_TRUE(index.find("schema"));
    EXPECT_EQ(index.find("schema")->string, "uhcg-corpus-v1");
}

TEST_F(Campaign, CorpusRejectsInconsistentOptions) {
    campaign::CorpusOptions bad;
    bad.min_threads = 6;
    bad.max_threads = 3;
    EXPECT_THROW(campaign::synth_model(bad, 0), std::invalid_argument);
    campaign::CorpusOptions cycles;
    cycles.models = 2;
    cycles.feedback_cycles = 3;
    EXPECT_THROW(campaign::write_corpus(cycles, fresh_dir("bad")),
                 std::invalid_argument);
}

// --- checkpoint journal -------------------------------------------------------------

TEST_F(Campaign, JournalRoundTripsAndDiscardsTornLines) {
    fs::path dir = fresh_dir("journal");
    fs::path path = dir / "j.jsonl";
    {
        campaign::Journal journal(path);
        journal.open_for_append(/*truncate=*/true);
        campaign::JournalEntry ok;
        ok.job = "00000000000000aa";
        ok.dir = "job-a";
        ok.status = "ok";
        ok.report_hash = "00000000000000bb";
        journal.append(ok);
        campaign::JournalEntry bad;
        bad.job = "00000000000000cc";
        bad.dir = "job-c";
        bad.status = "quarantined";
        bad.error_code = "dse.model";
        bad.error_message = "cycle with \"quotes\" and\nnewline";
        journal.append(bad);
        EXPECT_EQ(journal.appended(), 2u);
    }
    {
        campaign::Journal journal(path);
        std::vector<campaign::JournalEntry> entries = journal.load();
        ASSERT_EQ(entries.size(), 2u);
        EXPECT_EQ(entries[0].job, "00000000000000aa");
        EXPECT_EQ(entries[0].report_hash, "00000000000000bb");
        EXPECT_EQ(entries[1].status, "quarantined");
        EXPECT_EQ(entries[1].error_message,
                  "cycle with \"quotes\" and\nnewline");
    }
    // A kill -9 mid-append leaves a prefix of the final line: the hash
    // guard must reject it while keeping every earlier line.
    std::string text = slurp(path);
    std::ofstream(path, std::ios::binary)
        << text.substr(0, text.size() - 9);
    {
        campaign::Journal journal(path);
        std::vector<campaign::JournalEntry> entries = journal.load();
        ASSERT_EQ(entries.size(), 1u);  // torn second line discarded
        EXPECT_EQ(entries[0].job, "00000000000000aa");
    }
    // As does a line someone edited by hand (hash no longer matches).
    std::ofstream(path, std::ios::binary | std::ios::app)
        << text.substr(text.find('\n') + 1);  // intact second line back
    std::string tampered = slurp(path);
    std::size_t at = tampered.find("job-c");
    tampered.replace(at, 5, "job-X");
    std::ofstream(path, std::ios::binary) << tampered;
    {
        campaign::Journal journal(path);
        EXPECT_EQ(journal.load().size(), 1u);
    }
}

TEST_F(Campaign, JournalLaterEntryWinsForRerunJobs) {
    fs::path path = fresh_dir("journal2") / "j.jsonl";
    campaign::Journal journal(path);
    journal.open_for_append(true);
    campaign::JournalEntry entry;
    entry.job = "0000000000000001";
    entry.dir = "job";
    entry.status = "quarantined";
    entry.error_code = "campaign.job";
    entry.error_message = "first attempt";
    journal.append(entry);
    entry.status = "ok";
    entry.error_code.clear();
    entry.error_message.clear();
    entry.report_hash = "00000000000000ff";
    journal.append(entry);
    std::vector<campaign::JournalEntry> entries = journal.load();
    ASSERT_EQ(entries.size(), 2u);  // load keeps history; callers reduce
    EXPECT_EQ(entries.back().status, "ok");
}

// --- the runner ---------------------------------------------------------------------

TEST_F(Campaign, RunQuarantinesPoisonedJobsAndKeepsSweeping) {
    fs::path corpus = small_corpus("run", 2, /*cyclic=*/true);
    campaign::Manifest manifest = small_manifest(corpus);
    campaign::CampaignOptions options;
    options.out_dir = fresh_dir("run_out");
    options.jobs = 2;

    diag::DiagnosticEngine engine;
    campaign::CampaignResult result =
        campaign::run_campaign(manifest, options, engine);
    EXPECT_EQ(result.status, campaign::CampaignStatus::Partial);
    EXPECT_EQ(result.jobs_total, 8u);
    // The cyclic model fails its 2 explore jobs; everything else passes.
    EXPECT_EQ(result.jobs_quarantined, 2u);
    EXPECT_EQ(result.jobs_ok, 6u);
    for (const campaign::JournalEntry& entry : result.outcomes)
        if (entry.status != "ok")
            EXPECT_EQ(entry.error_code, diag::codes::kDseModel);

    // Every ok job committed a report; no stage debris anywhere.
    for (const campaign::JournalEntry& entry : result.outcomes) {
        fs::path job_dir = options.out_dir / "jobs" / entry.dir;
        EXPECT_EQ(fs::exists(job_dir / "report.json"), entry.status == "ok")
            << entry.dir;
        EXPECT_FALSE(fs::exists(job_dir / ".uhcg-stage")) << entry.dir;
    }

    // Both aggregate artifacts parse and carry their schemas.
    obs::json::Value report, manifest_doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(slurp(result.report_path), report, error))
        << error;
    EXPECT_EQ(report.find("schema")->string, "uhcg-campaign-report-v1");
    EXPECT_EQ(report.find("status")->string, "partial");
    ASSERT_TRUE(obs::json::parse(slurp(result.manifest_path), manifest_doc,
                                 error))
        << error;
    EXPECT_EQ(manifest_doc.find("schema")->string,
              "uhcg-campaign-manifest-v1");
    const obs::json::Value* quarantined = manifest_doc.find("quarantined");
    ASSERT_TRUE(quarantined && quarantined->is_array());
    EXPECT_EQ(quarantined->array.size(), 2u);
    // The Pareto table covers the explorable model only.
    const obs::json::Value* pareto = report.find("pareto");
    ASSERT_TRUE(pareto && pareto->is_array());
    ASSERT_EQ(pareto->array.size(), 1u);
    EXPECT_FALSE(pareto->array[0].find("points")->array.empty());
}

TEST_F(Campaign, ResumeSkipsCompletedJobsAndReplaysByteIdentically) {
    fs::path corpus = small_corpus("resume", 2, true);
    campaign::Manifest manifest = small_manifest(corpus);

    campaign::CampaignOptions reference_options;
    reference_options.out_dir = fresh_dir("resume_ref");
    reference_options.jobs = 1;
    diag::DiagnosticEngine reference_engine;
    campaign::run_campaign(manifest, reference_options, reference_engine);

    // Interrupted run: every job finishes and journals, then the process
    // dies during aggregation — the aggregate artifacts never existed.
    campaign::CampaignOptions options;
    options.out_dir = fresh_dir("resume_out");
    options.jobs = 1;
    flow::fault::Injector::instance().arm("campaign.aggregate",
                                          flow::fault::Kind::Throw, 1);
    diag::DiagnosticEngine crash_engine;
    EXPECT_THROW(campaign::run_campaign(manifest, options, crash_engine),
                 flow::fault::CrashInjected);
    flow::fault::Injector::instance().disarm_all();

    // Resume: every job was journaled (the crash hit aggregation), so the
    // sweep replays entirely from the journal.
    options.resume = true;
    diag::DiagnosticEngine resume_engine;
    campaign::CampaignResult resumed =
        campaign::run_campaign(manifest, options, resume_engine);
    EXPECT_EQ(resumed.jobs_resumed, resumed.jobs_total);
    EXPECT_EQ(tree(options.out_dir / "jobs"),
              tree(reference_options.out_dir / "jobs"));
    EXPECT_EQ(slurp(options.out_dir / "campaign-report.json"),
              slurp(reference_options.out_dir / "campaign-report.json"));
    EXPECT_EQ(slurp(options.out_dir / "campaign-manifest.json"),
              slurp(reference_options.out_dir / "campaign-manifest.json"));
}

TEST_F(Campaign, ResumeRerunsJobWhoseReportWasCorrupted) {
    fs::path corpus = small_corpus("rerun", 1, false);
    campaign::Manifest manifest = small_manifest(corpus);
    campaign::CampaignOptions options;
    options.out_dir = fresh_dir("rerun_out");
    options.jobs = 1;
    diag::DiagnosticEngine engine;
    campaign::CampaignResult first =
        campaign::run_campaign(manifest, options, engine);
    ASSERT_EQ(first.status, campaign::CampaignStatus::Ok);

    // Corrupt one committed report: its journal entry no longer matches,
    // so resume must re-run exactly that job and heal the tree.
    fs::path victim =
        options.out_dir / "jobs" / first.outcomes[0].dir / "report.json";
    std::string original = slurp(victim);
    std::ofstream(victim, std::ios::binary) << "{\"truncated\": tru";

    options.resume = true;
    diag::DiagnosticEngine resume_engine;
    campaign::CampaignResult resumed =
        campaign::run_campaign(manifest, options, resume_engine);
    EXPECT_EQ(resumed.status, campaign::CampaignStatus::Ok);
    EXPECT_EQ(resumed.jobs_resumed, resumed.jobs_total - 1);
    EXPECT_EQ(slurp(victim), original);  // healed byte-identically
}

}  // namespace
