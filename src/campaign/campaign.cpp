#include "campaign/campaign.hpp"

#include <algorithm>
#include <csignal>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "core/comm.hpp"
#include "core/hash.hpp"
#include "core/parallel.hpp"
#include "diag/diag.hpp"
#include "dse/explore.hpp"
#include "flow/fault.hpp"
#include "flow/generate.hpp"
#include "flow/txout.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "uml/xmi.hpp"

namespace uhcg::campaign {

namespace fs = std::filesystem;

namespace {

std::string hex16(std::uint64_t value) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xF];
        value >>= 4;
    }
    return out;
}

/// First Error+ diagnostic — the deterministic "why" a job quarantined.
void first_error(const diag::DiagnosticEngine& engine, std::string& code,
                 std::string& message) {
    for (const diag::Diagnostic& d : engine.diagnostics())
        if (d.severity == diag::Severity::Error ||
            d.severity == diag::Severity::Fatal) {
            code = d.code;
            message = d.message;
            return;
        }
}

/// uhcg-bench-v1 row (manual emit mirroring bench::Report::write_json).
struct ReportRow {
    std::string label;
    std::string text;
    double number = 0.0;
    bool numeric = false;
};

std::string render_report(const std::string& experiment,
                          const std::string& claim,
                          const std::vector<ReportRow>& rows) {
    std::ostringstream out;
    out << "{\n  \"schema\": \"uhcg-bench-v1\",\n  \"experiment\": \""
        << diag::json_escape(experiment) << "\",\n  \"claim\": \""
        << diag::json_escape(claim) << "\",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ReportRow& r = rows[i];
        out << (i ? ",\n    " : "\n    ") << "{\"label\": \""
            << diag::json_escape(r.label) << "\", ";
        if (r.numeric)
            out << "\"number\": " << r.number << '}';
        else
            out << "\"value\": \"" << diag::json_escape(r.text) << "\"}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

/// What one executed (or replayed) job contributes to the aggregate.
struct JobRun {
    JournalEntry entry;
    bool ok = false;
};

/// Runs one job to completion: model parse, strategy execution,
/// transactional commit of the job directory. Returns the journal entry;
/// never throws for job-local failures (those quarantine), only for
/// campaign-level crashes (CrashInjected) and truly unexpected states.
JobRun execute_job(const JobSpec& job, const CampaignOptions& options) {
    obs::ObsSpan span("campaign.job");
    JobRun run;
    run.entry.job = job.id;
    run.entry.dir = job.dir;
    run.entry.attempts = 1;

    diag::DiagnosticEngine jengine;
    auto quarantine = [&](std::string fallback_code,
                          std::string fallback_message) {
        run.entry.status = "quarantined";
        run.entry.error_code = std::move(fallback_code);
        run.entry.error_message = std::move(fallback_message);
        first_error(jengine, run.entry.error_code, run.entry.error_message);
        run.ok = false;
        obs::counter("campaign.jobs_quarantined").add();
    };

    uml::Model model("empty");
    try {
        model = uml::from_xmi_string(*job.model_bytes, jengine,
                                     job.model_path);
    } catch (const std::exception& e) {
        quarantine(diag::codes::kCampaignJob,
                   std::string("model load failed: ") + e.what());
        return run;
    }
    if (jengine.has_errors()) {
        quarantine(diag::codes::kCampaignJob, "model load failed");
        return run;
    }

    const Manifest& m = *job.manifest;
    std::vector<ReportRow> rows;
    rows.push_back({"strategy", job.strategy, 0, false});
    rows.push_back({"backend", job.backend, 0, false});
    rows.push_back({"cost model", job.cost_model.name, 0, false});
    std::vector<std::pair<std::string, std::string>> files;

    if (job.strategy == "explore") {
        dse::ExploreOptions eopts;
        eopts.max_processors = m.max_processors;
        eopts.random_samples = m.random_samples;
        // The campaign is the parallel layer; inner sweeps stay serial so
        // shard counts never fight the pool (results are identical for
        // any value anyway).
        eopts.jobs = 1;
        eopts.backend = job.backend;
        eopts.cost_model = job.cost_model.params;
        core::CommModel comm = core::analyze_communication(model);
        dse::ExploreResult result;
        try {
            result = dse::explore(model, comm, eopts, &jengine);
        } catch (const flow::fault::CrashInjected&) {
            throw;
        } catch (const std::exception& e) {
            quarantine(diag::codes::kDseModel,
                       "model '" + model.name() +
                           "' is not explorable: " + e.what());
            return run;
        }
        if (result.candidates.empty()) {
            quarantine(diag::codes::kDseEmpty,
                       "nothing to explore: model '" + model.name() +
                           "' has no threads");
            return run;
        }
        const dse::Candidate& best = result.candidates[result.best];
        rows.push_back({"candidates",
                        {},
                        static_cast<double>(result.candidates.size()),
                        true});
        rows.push_back({"unique clusterings",
                        {},
                        static_cast<double>(result.stats.unique_clusterings),
                        true});
        rows.push_back({"pareto points",
                        {},
                        static_cast<double>(result.pareto_front.size()),
                        true});
        rows.push_back({"best makespan", {}, best.makespan, true});
        rows.push_back({"best processors",
                        {},
                        static_cast<double>(best.processors),
                        true});
        rows.push_back({"best strategy", best.strategy, 0, false});
        files.emplace_back("explore.txt", dse::format(result));
    } else {
        flow::GenerateOptions gopts;
        gopts.iterations = m.iterations;
        gopts.with_kpn = m.with_kpn;
        gopts.gen_jobs = options.gen_jobs;
        gopts.sim_backend = job.backend;
        gopts.resilience.retry = options.retry;
        gopts.resilience.pass_budget.wall_ms = options.pass_budget_ms;
        flow::GenerateResult result;
        try {
            result = flow::generate(model, gopts, jengine);
        } catch (const flow::fault::CrashInjected&) {
            throw;
        } catch (const std::exception& e) {
            quarantine(diag::codes::kCampaignJob,
                       std::string("generate failed: ") + e.what());
            return run;
        }
        if (result.status == flow::GenerateStatus::Failed) {
            quarantine(diag::codes::kCampaignJob, "generate failed");
            return run;
        }
        std::size_t file_count = 0, bytes = 0;
        std::uint64_t output_hash = core::fnv1a("");
        for (const flow::StrategyResult& sr : result.results)
            for (const flow::GeneratedFile& f : sr.files) {
                ++file_count;
                bytes += f.contents.size();
                output_hash =
                    core::fnv1a(f.name, output_hash);
                output_hash =
                    core::fnv1a(f.contents, output_hash);
                files.emplace_back(f.name, f.contents);
            }
        rows.push_back(
            {"flow status",
             std::string(flow::to_string(result.status)),
             0,
             false});
        rows.push_back({"units",
                        {},
                        static_cast<double>(result.results.size()),
                        true});
        rows.push_back({"quarantined units",
                        {},
                        static_cast<double>(result.quarantined.size()),
                        true});
        rows.push_back(
            {"files", {}, static_cast<double>(file_count), true});
        rows.push_back({"bytes", {}, static_cast<double>(bytes), true});
        rows.push_back({"output hash", hex16(output_hash), 0, false});
        files.emplace_back("flow-manifest.json",
                           flow::to_manifest_json(result));
    }

    std::string report = render_report(
        job.dir,
        "campaign job: " + job.strategy + " on " + job.model_name +
            " via " + job.backend + " / " + job.cost_model.name,
        rows);

    // Everything or nothing: the job directory appears only complete.
    flow::OutputTransaction tx(options.out_dir / "jobs" / job.dir);
    for (const auto& [name, contents] : files) tx.write(name, contents);
    tx.write("report.json", report);
    tx.commit();

    run.entry.status = "ok";
    run.entry.report_hash = hex16(core::fnv1a(report));
    run.ok = true;
    obs::counter("campaign.jobs_ok").add();
    return run;
}

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return {};
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

const obs::json::Value* find_row(const obs::json::Value& report,
                                 std::string_view label) {
    const obs::json::Value* rows = report.find("rows");
    if (!rows || !rows->is_array()) return nullptr;
    for (const obs::json::Value& row : rows->array) {
        const obs::json::Value* l = row.find("label");
        if (l && l->is_string() && l->string == label) return &row;
    }
    return nullptr;
}

bool row_number(const obs::json::Value& report, std::string_view label,
                double& out) {
    const obs::json::Value* row = find_row(report, label);
    if (!row) return false;
    const obs::json::Value* n = row->find("number");
    if (!n || !n->is_number()) return false;
    out = n->number;
    return true;
}

std::string row_text(const obs::json::Value& report, std::string_view label) {
    const obs::json::Value* row = find_row(report, label);
    if (!row) return {};
    const obs::json::Value* v = row->find("value");
    return v && v->is_string() ? v->string : std::string();
}

/// One (processors, makespan) point of the cross-backend Pareto table.
struct ParetoPoint {
    std::size_t processors = 0;
    double makespan = 0.0;
    std::string job_dir;
};

}  // namespace

std::string_view to_string(CampaignStatus status) {
    switch (status) {
        case CampaignStatus::Ok: return "ok";
        case CampaignStatus::Partial: return "partial";
        case CampaignStatus::Failed: return "failed";
    }
    return "failed";
}

CampaignResult run_campaign(const Manifest& manifest,
                            const CampaignOptions& options,
                            diag::DiagnosticEngine& engine) {
    obs::ObsSpan span("campaign.run");
    CampaignResult result;

    std::error_code ec;
    fs::create_directories(options.out_dir, ec);
    if (ec) {
        engine.error(diag::codes::kCampaignJournal,
                     "cannot create campaign directory '" +
                         options.out_dir.string() + "': " + ec.message());
        return result;
    }

    // Reclaim debris a previous kill -9 left behind before any job reuses
    // those directories.
    if (options.stale_stage_ttl_s) {
        flow::StaleStageStats pruned = flow::prune_stale_stages(
            options.out_dir, options.stale_stage_ttl_s);
        result.stale_stages_pruned = pruned.pruned;
    }

    std::vector<JobSpec> jobs = expand(manifest, engine);
    if (jobs.empty()) {
        engine.error(diag::codes::kCampaignManifest,
                     "manifest expands to zero jobs");
        return result;
    }
    result.jobs_total = jobs.size();

    flow::fault::Injector::instance().fire_crash("campaign.dispatch");

    // Resume: replay intact journal entries whose jobs still exist and —
    // for ok entries — whose committed report still matches the recorded
    // hash. Anything else re-runs.
    Journal journal(options.out_dir / "campaign-journal.jsonl");
    std::map<std::string, JournalEntry> done;
    if (options.resume) {
        for (JournalEntry& entry : journal.load()) {
            if (entry.status == "ok") {
                std::string report = read_file(options.out_dir / "jobs" /
                                               entry.dir / "report.json");
                if (report.empty() ||
                    hex16(core::fnv1a(report)) !=
                        entry.report_hash)
                    continue;
            }
            done[entry.job] = std::move(entry);  // later lines win
        }
    }
    journal.open_for_append(/*truncate=*/!options.resume);

    std::vector<const JobSpec*> pending;
    for (const JobSpec& job : jobs)
        if (!done.count(job.id)) pending.push_back(&job);
    result.jobs_resumed = jobs.size() - pending.size();
    if (result.jobs_resumed)
        obs::counter("campaign.jobs_resumed").add(result.jobs_resumed);

    // Sharded dispatch: shards are fixed slices of the pending list, so
    // the shard decomposition is deterministic; each shard runs its jobs
    // sequentially on one pool worker.
    const std::size_t shard_size =
        options.shard_size ? options.shard_size : 1;
    const std::size_t shards = (pending.size() + shard_size - 1) / shard_size;
    std::mutex results_mutex;
    std::map<std::string, JournalEntry> fresh;
    core::parallel_for(shards, options.jobs, [&](std::size_t shard) {
        std::size_t begin = shard * shard_size;
        std::size_t end = std::min(pending.size(), begin + shard_size);
        for (std::size_t i = begin; i < end; ++i) {
            const JobSpec& job = *pending[i];
            flow::fault::Injector::instance().fire_crash("campaign.job/" +
                                                         job.dir);
            JobRun run = execute_job(job, options);
            flow::fault::Injector::instance().fire_crash("campaign.journal");
            journal.append(run.entry);
            if (options.halt_after &&
                journal.appended() >= options.halt_after) {
                // The CI chaos hook: die exactly like a kill -9 would,
                // after a deterministic number of finished jobs.
                std::raise(SIGKILL);
            }
            std::lock_guard<std::mutex> lock(results_mutex);
            fresh[job.id] = std::move(run.entry);
        }
    });

    flow::fault::Injector::instance().fire_crash("campaign.aggregate");
    obs::ObsSpan aggregate_span("campaign.aggregate");

    // Final outcomes in canonical expansion order, replayed or fresh.
    for (const JobSpec& job : jobs) {
        const JournalEntry* entry = nullptr;
        if (auto it = fresh.find(job.id); it != fresh.end())
            entry = &it->second;
        else if (auto replayed = done.find(job.id); replayed != done.end())
            entry = &replayed->second;
        if (!entry) continue;  // unreachable: every job ran or was replayed
        result.outcomes.push_back(*entry);
        if (entry->status == "ok")
            ++result.jobs_ok;
        else
            ++result.jobs_quarantined;
    }

    result.status = result.jobs_ok == jobs.size() ? CampaignStatus::Ok
                    : result.jobs_ok              ? CampaignStatus::Partial
                                                  : CampaignStatus::Failed;

    // ---- Aggregation. Every byte below is deterministic: metrics come
    // from the committed per-job reports (identical whether the job ran
    // now or in a previous, interrupted process), never from this run's
    // timings or cache behaviour.
    std::map<std::string, obs::json::Value> reports;
    for (const JournalEntry& entry : result.outcomes) {
        if (entry.status != "ok") continue;
        std::string text = read_file(options.out_dir / "jobs" / entry.dir /
                                     "report.json");
        obs::json::Value doc;
        std::string error;
        if (obs::json::parse(text, doc, error))
            reports.emplace(entry.job, std::move(doc));
    }
    std::map<std::string, const JobSpec*> spec_of;
    for (const JobSpec& job : jobs) spec_of[job.id] = &job;

    std::ostringstream report;
    report << "{\n  \"schema\": \"uhcg-campaign-report-v1\",\n"
           << "  \"status\": \"" << to_string(result.status) << "\",\n"
           << "  \"jobs\": {\"total\": " << result.jobs_total
           << ", \"ok\": " << result.jobs_ok
           << ", \"quarantined\": " << result.jobs_quarantined << "},\n"
           << "  \"summary\": [\n";
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        const JournalEntry& entry = result.outcomes[i];
        const JobSpec& job = *spec_of[entry.job];
        report << "    {\"dir\": \"" << diag::json_escape(entry.dir)
               << "\", \"model\": \"" << diag::json_escape(job.model_name)
               << "\", \"strategy\": \"" << diag::json_escape(job.strategy)
               << "\", \"backend\": \"" << diag::json_escape(job.backend)
               << "\", \"cost_model\": \""
               << diag::json_escape(job.cost_model.name) << "\", \"status\": \""
               << diag::json_escape(entry.status) << "\"";
        auto found = reports.find(entry.job);
        if (found != reports.end()) {
            double value = 0.0;
            if (row_number(found->second, "best makespan", value))
                report << ", \"best_makespan\": " << value;
            if (row_number(found->second, "best processors", value))
                report << ", \"best_processors\": "
                       << static_cast<std::size_t>(value);
            if (row_number(found->second, "files", value))
                report << ", \"files\": " << static_cast<std::size_t>(value);
            if (row_number(found->second, "bytes", value))
                report << ", \"bytes\": " << static_cast<std::size_t>(value);
            std::string hash = row_text(found->second, "output hash");
            if (!hash.empty())
                report << ", \"output_hash\": \"" << diag::json_escape(hash)
                       << "\"";
        }
        if (entry.status != "ok")
            report << ", \"error_code\": \""
                   << diag::json_escape(entry.error_code) << "\"";
        report << "}" << (i + 1 < result.outcomes.size() ? "," : "") << "\n";
    }
    report << "  ],\n  \"pareto\": [\n";

    // Cross-(backend × cost-model) Pareto per model, over the explore
    // jobs' recommended candidates: a point survives when no other point
    // has <= processors and < makespan.
    std::vector<std::string> model_order;
    std::map<std::string, std::vector<ParetoPoint>> points_of;
    for (const JournalEntry& entry : result.outcomes) {
        if (entry.status != "ok") continue;
        const JobSpec& job = *spec_of[entry.job];
        if (job.strategy != "explore") continue;
        auto found = reports.find(entry.job);
        if (found == reports.end()) continue;
        double makespan = 0.0, processors = 0.0;
        if (!row_number(found->second, "best makespan", makespan) ||
            !row_number(found->second, "best processors", processors))
            continue;
        if (!points_of.count(job.model_name))
            model_order.push_back(job.model_name);
        points_of[job.model_name].push_back(
            {static_cast<std::size_t>(processors), makespan, entry.dir});
    }
    for (std::size_t m = 0; m < model_order.size(); ++m) {
        const std::string& model = model_order[m];
        std::vector<ParetoPoint>& points = points_of[model];
        std::sort(points.begin(), points.end(),
                  [](const ParetoPoint& a, const ParetoPoint& b) {
                      if (a.processors != b.processors)
                          return a.processors < b.processors;
                      if (a.makespan != b.makespan)
                          return a.makespan < b.makespan;
                      return a.job_dir < b.job_dir;
                  });
        std::vector<ParetoPoint> front;
        for (const ParetoPoint& p : points) {
            bool dominated = false;
            for (const ParetoPoint& q : points)
                if (q.processors <= p.processors && q.makespan < p.makespan) {
                    dominated = true;
                    break;
                }
            if (!dominated &&
                (front.empty() || front.back().processors != p.processors ||
                 front.back().makespan != p.makespan))
                front.push_back(p);
        }
        report << "    {\"model\": \"" << diag::json_escape(model)
               << "\", \"points\": [";
        for (std::size_t p = 0; p < front.size(); ++p)
            report << (p ? ", " : "") << "{\"processors\": "
                   << front[p].processors << ", \"makespan\": "
                   << front[p].makespan << ", \"job\": \""
                   << diag::json_escape(front[p].job_dir) << "\"}";
        report << "]}" << (m + 1 < model_order.size() ? "," : "") << "\n";
    }
    report << "  ]\n}\n";

    result.report_path = options.out_dir / "campaign-report.json";
    flow::write_file_atomic(result.report_path, report.str());

    // The failure record, schema uhcg-campaign-manifest-v1 — the campaign
    // sibling of the flow's uhcg-flow-manifest-v1.
    std::ostringstream cm;
    cm << "{\n  \"schema\": \"uhcg-campaign-manifest-v1\",\n"
       << "  \"status\": \"" << to_string(result.status) << "\",\n"
       << "  \"jobs\": [\n";
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        const JournalEntry& entry = result.outcomes[i];
        const JobSpec& job = *spec_of[entry.job];
        cm << "    {\"id\": \"" << diag::json_escape(entry.job)
           << "\", \"dir\": \"" << diag::json_escape(entry.dir)
           << "\", \"model\": \"" << diag::json_escape(job.model_name)
           << "\", \"strategy\": \"" << diag::json_escape(job.strategy)
           << "\", \"backend\": \"" << diag::json_escape(job.backend)
           << "\", \"cost_model\": \""
           << diag::json_escape(job.cost_model.name) << "\", \"status\": \""
           << diag::json_escape(entry.status) << "\"";
        if (!entry.report_hash.empty())
            cm << ", \"report_hash\": \""
               << diag::json_escape(entry.report_hash) << "\"";
        cm << "}" << (i + 1 < result.outcomes.size() ? "," : "") << "\n";
    }
    cm << "  ],\n  \"quarantined\": [\n";
    bool first = true;
    for (const JournalEntry& entry : result.outcomes) {
        if (entry.status == "ok") continue;
        const JobSpec& job = *spec_of[entry.job];
        if (!first) cm << ",\n";
        first = false;
        cm << "    {\"id\": \"" << diag::json_escape(entry.job)
           << "\", \"dir\": \"" << diag::json_escape(entry.dir)
           << "\", \"strategy\": \"" << diag::json_escape(job.strategy)
           << "\", \"reason\": \"" << diag::json_escape(entry.error_message)
           << "\", \"error_codes\": [\""
           << diag::json_escape(entry.error_code) << "\"]}";
    }
    if (!first) cm << "\n";
    cm << "  ]\n}\n";

    result.manifest_path = options.out_dir / "campaign-manifest.json";
    flow::write_file_atomic(result.manifest_path, cm.str());

    return result;
}

}  // namespace uhcg::campaign
