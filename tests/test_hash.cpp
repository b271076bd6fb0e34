// Pinned values of core::fnv1a and of every persisted identity built on
// it. The expected numbers were produced by the per-module FNV-1a copies
// this header replaced; any drift here would orphan checkpoints, journals
// and campaign job directories written by earlier builds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "campaign/journal.hpp"
#include "campaign/manifest.hpp"
#include "core/hash.hpp"
#include "dse/explore.hpp"
#include "flow/checkpoint.hpp"
#include "serve/cache.hpp"
#include "taskgraph/clustering.hpp"

namespace {

using namespace uhcg;
namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
    fs::path dir = fs::path(testing::TempDir()) / ("uhcg_hash_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

TEST(CoreHash, ByteLoopMatchesFnv1a) {
    EXPECT_EQ(core::fnv1a(""), 14695981039346656037ull);
    EXPECT_EQ(core::fnv1a(""), core::kFnvOffset);
    EXPECT_EQ(core::fnv1a("uhcg"), 3574708995979617666ull);
    // Chaining is the same as hashing the concatenation.
    EXPECT_EQ(core::fnv1a("hc", core::fnv1a("u")), core::fnv1a("uhc"));
    // The word adapter feeds 8 little-endian bytes through the byte loop.
    EXPECT_EQ(core::fnv1a_u64(0x0706050403020100ull, core::kFnvOffset),
              core::fnv1a(std::string_view("\x00\x01\x02\x03\x04\x05\x06\x07",
                                           8)));
}

TEST(CoreHash, PersistedIdentitiesAreUnchanged) {
    // Campaign job id (model bytes, stem, strategy, backend, cost model,
    // options) and the cost-model fingerprint inside it.
    fs::path dir = fresh_dir("campaign");
    std::ofstream(dir / "pinned.xmi") << "<xmi:XMI/>\n";
    campaign::Manifest manifest;
    manifest.models = {(dir / "pinned.xmi").string()};
    manifest.strategies = {"explore"};
    manifest.backends = {"dynamic-fifo"};
    manifest.cost_models.push_back({});
    diag::DiagnosticEngine engine;
    std::vector<campaign::JobSpec> jobs = campaign::expand(manifest, engine);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].id, "7b494decf2085fa9");
    EXPECT_EQ(jobs[0].dir, "pinned__explore__dynamic-fifo__default__7b494dec");
    EXPECT_EQ(campaign::cost_model_fingerprint(sim::MpsocParams{}),
              11715324200365202612ull);

    // Journal line self-hash.
    {
        campaign::Journal journal(dir / "journal.jsonl");
        journal.open_for_append(true);
        campaign::JournalEntry entry;
        entry.job = "0123456789abcdef";
        entry.dir = "pinned__explore";
        entry.status = "ok";
        entry.report_hash = "fedcba9876543210";
        entry.attempts = 1;
        journal.append(entry);
        journal.close();
    }
    std::ifstream in(dir / "journal.jsonl");
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line,
              "{\"schema\":\"uhcg-campaign-journal-v1\",\"job\":"
              "\"0123456789abcdef\",\"dir\":\"pinned__explore\",\"status\":"
              "\"ok\",\"attempts\":1,\"report_hash\":\"fedcba9876543210\","
              "\"h\":\"ae64ba51a5b3397c\"}");

    // Serve model-cache key and generate checkpoint key.
    EXPECT_EQ(serve::ModelCache::hash_bytes("<uml:Model name=\"pinned\"/>"),
              "8b7a29086407c291");
    EXPECT_EQ(flow::CheckpointStore::key("model bytes", "opts", "caam", "CPU0"),
              "caam-CPU0-cac350aff2d493e5");

    // DSE clustering fingerprint (the DSE seed, word-wise adapter).
    EXPECT_EQ(dse::clustering_fingerprint(
                  taskgraph::Clustering::from_assignment({0, 1, 0, 2})),
              5107520804335382340ull);
    fs::remove_all(dir);
}

}  // namespace
