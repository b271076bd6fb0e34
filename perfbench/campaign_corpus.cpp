// campaign_corpus.cpp — `uhcg campaign` over many small models, traced.
//
// Set-up writes the paper's four case studies, the 6-machine × 96-state
// FSM model and a seeded 24-model synthetic corpus (4–24 threads, the last
// two closed into feedback cycles) to disk, plus a manifest running the
// `generate` and `explore` strategies on the default backend. Only the
// explore jobs of the four cyclic models quarantine.
#include "campaign_corpus.hpp"

#include <fstream>
#include <iostream>

#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "cases/cases.hpp"
#include "core/comm.hpp"
#include "dse/explore.hpp"
#include "flow/generate.hpp"
#include "models.hpp"
#include "replay.hpp"
#include "uml/xmi.hpp"

namespace perfbench {

namespace {

using namespace uhcg;

constexpr std::size_t kCorpusModels = 24;
constexpr std::size_t kCorpusCycles = 2;

/// The FSM-heavy model of bench_generate: a seeded 24-thread application
/// plus `machines` ring state machines of `states` states each.
uml::Model fsm_model(std::uint64_t seed, std::size_t machines,
                     std::size_t states) {
    uml::Model model = cases::random_application(seed, 24, 4);
    model.set_name("fsmbench");
    for (std::size_t m = 0; m < machines; ++m) {
        uml::StateMachine& sm =
            model.add_state_machine("Ctl" + std::to_string(m));
        std::vector<uml::State*> ring;
        for (std::size_t s = 0; s < states; ++s) {
            uml::State& st = sm.add_state("S" + std::to_string(s));
            st.set_entry_action("enter_" + std::to_string(s) + "();");
            st.set_exit_action("leave_" + std::to_string(s) + "();");
            ring.push_back(&st);
        }
        sm.set_initial_state(*ring.front());
        for (std::size_t s = 0; s < states; ++s) {
            uml::Transition& t =
                sm.add_transition(*ring[s], *ring[(s + 1) % states]);
            t.set_trigger("tick_" + std::to_string(s));
            t.set_guard("ready_" + std::to_string(s));
            t.set_effect("step_" + std::to_string(s) + "();");
        }
    }
    return model;
}

struct Input {
    std::string file;  ///< file name in the models directory
    std::string xmi;
    bool cyclic = false;  ///< task graph closed into a feedback loop
};

std::vector<Input> make_inputs(std::uint64_t seed) {
    std::vector<Input> inputs;
    auto add = [&](std::string file, const uml::Model& model, bool cyclic) {
        inputs.push_back({std::move(file), uml::to_xmi_string(model), cyclic});
    };
    add("didactic.xmi", cases::didactic_model(), false);
    add("crane.xmi", cases::crane_model(), true);
    add("synthetic.xmi", cases::synthetic_model(), false);
    add("mixed.xmi", cases::mixed_model(), true);
    add("fsmbench.xmi", fsm_model(derive_seed(seed, 200), 6, 96), false);
    for (std::size_t i = 0; i < kCorpusModels; ++i) {
        // Pinned sizes 4..24 threads; the seed picks the channels.
        std::size_t threads = 4 + 20 * i / (kCorpusModels - 1);
        bool cyclic = i >= kCorpusModels - kCorpusCycles;
        char name[32];
        std::snprintf(name, sizeof name, "corpus-%03zu.xmi", i);
        add(name, synth_model(derive_seed(seed, 300 + i), i, threads, cyclic),
            cyclic);
    }
    return inputs;
}

campaign::CampaignResult run_campaign(const campaign::Manifest& manifest,
                                      const fs::path& dir, std::size_t jobs) {
    campaign::CampaignOptions options;
    options.out_dir = dir;
    options.jobs = jobs;
    diag::DiagnosticEngine engine;
    return campaign::run_campaign(manifest, options, engine);
}

/// One job run directly through flow::generate / dse::explore, as the
/// campaign runs it but without journal, report or commit.
void run_direct(const campaign::JobSpec& job) {
    diag::DiagnosticEngine engine;
    uml::Model model = uml::from_xmi_string(*job.model_bytes, engine);
    if (job.strategy == "explore") {
        dse::ExploreOptions options;
        options.max_processors = job.manifest->max_processors;
        options.random_samples = job.manifest->random_samples;
        options.jobs = 1;
        options.backend = job.backend;
        options.cost_model = job.cost_model.params;
        try {
            dse::explore(model, core::analyze_communication(model), options,
                         &engine);
        } catch (const std::exception&) {
            // cyclic model: the campaign quarantines this job
        }
    } else {
        flow::GenerateOptions options;
        options.iterations = job.manifest->iterations;
        options.with_kpn = job.manifest->with_kpn;
        options.sim_backend = job.backend;
        flow::generate(model, options, engine);
    }
}

// The journal lists jobs in completion order; its bytes count, its order
// is not digested.
const std::vector<std::string> kUnordered = {"campaign-journal.jsonl"};

}  // namespace

struct CampaignCorpus::State {
    fs::path dir;
    std::vector<Input> inputs;
    campaign::Manifest manifest;
    std::vector<campaign::JobSpec> jobs;
    /// Expected status per job id: only explore jobs of cyclic models
    /// quarantine.
    std::map<std::string, std::string> expected;
    std::size_t quarantined = 0;

    /// Checks every job's outcome against its expected status.
    bool check(const campaign::CampaignResult& r, Outcome& out) const {
        if (!out.check(r.outcomes.size() == jobs.size(),
                       "campaign ran " + std::to_string(r.outcomes.size()) +
                           " of " + std::to_string(jobs.size()) + " jobs"))
            return false;
        for (const campaign::JournalEntry& e : r.outcomes) {
            auto it = expected.find(e.job);
            if (!out.check(it != expected.end() && it->second == e.status,
                           "job " + e.dir + " ended " + e.status + " (" +
                               e.error_code + ")"))
                return false;
        }
        return true;
    }
};

CampaignCorpus::CampaignCorpus(const Options& options)
    : state_(std::make_unique<State>()) {
    State& s = *state_;
    s.dir = options.work_dir / "campaign";
    s.inputs = make_inputs(options.seed);
    fs::path models = s.dir / "models";
    fresh_dir(models);
    std::map<std::string, bool> cyclic_stem;
    for (const Input& in : s.inputs) {
        std::ofstream(models / in.file, std::ios::binary) << in.xmi;
        cyclic_stem[fs::path(in.file).stem().string()] = in.cyclic;
    }
    fs::path manifest = s.dir / "campaign.json";
    std::ofstream(manifest)
        << "{\"schema\": \"uhcg-campaign-v1\", \"models\": [\""
        << models.string()
        << "\"], \"strategies\": [\"generate\", \"explore\"], "
           "\"generate\": {\"with_kpn\": true}}\n";
    diag::DiagnosticEngine engine;
    s.manifest = campaign::load_manifest(manifest.string(), engine);
    if (engine.has_errors()) throw std::runtime_error("manifest rejected");
    s.jobs = campaign::expand(s.manifest, engine);
    for (const campaign::JobSpec& job : s.jobs) {
        bool quarantine =
            job.strategy == "explore" &&
            cyclic_stem.at(fs::path(job.model_path).stem().string());
        s.expected[job.id] = quarantine ? "quarantined" : "ok";
        s.quarantined += quarantine;
    }
    std::cout << "campaign corpus: " << s.inputs.size() << " models, "
              << s.jobs.size() << " jobs, " << s.quarantined
              << " expected quarantined" << std::endl;
}

CampaignCorpus::~CampaignCorpus() = default;

void CampaignCorpus::trace_round(Outcome& out,
                                 std::map<std::string, double>& round) {
    const State& s = *state_;
    out.attempt();
    for (const Input& in : s.inputs) {
        Replay r = replay(in.xmi, in.file, out);
        round["fsm.emit.ms"] += r.ms["fsm.emit.ms"];
        round["fsm.states"] += r.counts["fsm.states"];
        for (const auto& [name, count] : r.counts)
            out.exact("campaign/" + in.file + "." + name,
                      static_cast<std::uint64_t>(count));
    }

    diag::DiagnosticEngine engine;
    round["campaign.expand.ms"] =
        time_ms([&] { campaign::expand(s.manifest, engine); });

    const fs::path dir = s.dir / "out";
    fs::remove_all(dir);
    dse::clear_simulation_cache();
    campaign::CampaignResult r;
    double serial = time_ms([&] { r = run_campaign(s.manifest, dir, 1); });
    if (s.check(r, out)) {
        TreeDigest tree = digest_tree(dir, kUnordered);
        out.exact("campaign.tree", hex16(tree.digest));
        out.exact("campaign.output_bytes", tree.bytes);
    }
    round["campaign.jobs"] = static_cast<double>(r.jobs_total);
    round["campaign.quarantined"] = static_cast<double>(r.jobs_quarantined);
    out.exact("campaign.quarantined", r.jobs_quarantined);

    dse::clear_simulation_cache();
    double direct = time_ms([&] {
        for (const campaign::JobSpec& job : s.jobs) run_direct(job);
    });
    round["campaign.supervision_ms"] = serial - direct;
}

}  // namespace perfbench
