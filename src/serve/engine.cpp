#include "serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>
#include <vector>

#include "core/allocation.hpp"
#include "diag/diag.hpp"
#include "dse/explore.hpp"
#include "flow/generate.hpp"
#include "flow/txout.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "sim/backend.hpp"
#include "sim/mpsoc.hpp"

namespace uhcg::serve {
namespace {

constexpr const char* kSchema = "uhcg-serve-v1";

/// Untrusted request bytes go through the hardened parser: shallow depth
/// (no legitimate request nests deeply) and the transport's size limit.
obs::json::ParseLimits request_limits(std::size_t max_bytes) {
    obs::json::ParseLimits limits;
    limits.max_depth = 32;
    limits.max_bytes = max_bytes;
    return limits;
}

std::string quote(std::string_view text) {
    std::string out;
    out.reserve(text.size() + 2);
    out.push_back('"');
    out += diag::json_escape(text);
    out.push_back('"');
    return out;
}

std::string number_text(double value) {
    std::ostringstream out;
    out << value;
    return out.str();
}

/// The request id, rendered as the JSON token echoed in the response:
/// strings stay strings, numbers stay numbers, anything else is null.
std::string id_token(const obs::json::Value* doc) {
    if (!doc) return "null";
    const obs::json::Value* id = doc->find("id");
    if (!id) return "null";
    if (id->is_string()) return quote(id->string);
    if (id->is_number()) return number_text(id->number);
    return "null";
}

const obs::json::Value* find_param(const obs::json::Value& doc,
                                   std::string_view key) {
    if (const obs::json::Value* params = doc.find("params"))
        if (const obs::json::Value* v = params->find(key)) return v;
    return nullptr;
}

std::string param_string(const obs::json::Value& doc, std::string_view key,
                         std::string fallback = {}) {
    const obs::json::Value* v = find_param(doc, key);
    return v && v->is_string() ? v->string : fallback;
}

double param_number(const obs::json::Value& doc, std::string_view key,
                    double fallback = 0.0) {
    const obs::json::Value* v = find_param(doc, key);
    return v && v->is_number() ? v->number : fallback;
}

/// A request param `handle` answers with `serve.bad-request`.
struct BadParam : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// A count param: `fallback` when absent or not a number; BadParam, naming
/// the param, unless a non-negative integer that fits `T`.
template <typename T>
T param_count(const obs::json::Value& doc, std::string_view key, T fallback) {
    const obs::json::Value* v = find_param(doc, key);
    if (!v || !v->is_number()) return fallback;
    if (std::optional<T> n = obs::json::to_unsigned<T>(*v)) return *n;
    throw BadParam("param '" + std::string(key) +
                   "' must be a non-negative integer in range (got " +
                   number_text(v->number) + ")");
}

bool param_bool(const obs::json::Value& doc, std::string_view key,
                bool fallback = false) {
    const obs::json::Value* v = find_param(doc, key);
    return v && v->is_bool() ? v->boolean : fallback;
}

std::string diagnostics_json(const diag::DiagnosticEngine& engine) {
    std::string out = "[";
    bool first = true;
    for (const diag::Diagnostic& d : engine.diagnostics()) {
        if (!first) out += ",";
        first = false;
        out += "{\"severity\":" + quote(diag::to_string(d.severity)) +
               ",\"code\":" + quote(d.code) +
               ",\"message\":" + quote(d.message) + "}";
    }
    return out + "]";
}

std::string error_response(const std::string& id, std::string_view code,
                           std::string_view message,
                           const diag::DiagnosticEngine* diagnostics = nullptr) {
    std::string out = std::string("{\"schema\":") + quote(kSchema) +
                      ",\"id\":" + id + ",\"ok\":false,\"error\":{\"code\":" +
                      quote(code) + ",\"message\":" + quote(message) + "}";
    if (diagnostics && !diagnostics->empty())
        out += ",\"diagnostics\":" + diagnostics_json(*diagnostics);
    return out + "}";
}

double ms_since(Engine::Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Engine::Clock::now() -
                                                     start)
        .count();
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_budget_bytes),
      started_(Clock::now()) {}

std::string Engine::frame_error_response(std::string_view message) {
    return error_response("null", "serve.frame", message);
}

std::string Engine::overloaded_response(std::string_view request_json,
                                        std::size_t queue_limit) const {
    obs::json::Value doc;
    std::string err;
    bool parsed = obs::json::parse(request_json, doc, err,
                                   request_limits(options_.max_request_bytes));
    return error_response(
        id_token(parsed ? &doc : nullptr), "serve.overloaded",
        "request queue full (limit " + std::to_string(queue_limit) +
            ") — retry with backoff");
}

std::string Engine::shutting_down_response(std::string_view request_json) const {
    obs::json::Value doc;
    std::string err;
    bool parsed = obs::json::parse(request_json, doc, err,
                                   request_limits(options_.max_request_bytes));
    return error_response(id_token(parsed ? &doc : nullptr),
                          "serve.shutting-down",
                          "daemon is draining; request was not started");
}

std::string Engine::handle(std::string_view request_json,
                           Clock::time_point received) {
    obs::ObsSpan span("serve.request", "serve");
    static obs::Counter& request_counter = obs::counter("serve.requests");
    request_counter.add(1);
    requests_total_.fetch_add(1, std::memory_order_relaxed);

    obs::json::Value doc;
    std::string parse_error;
    if (!obs::json::parse(request_json, doc, parse_error,
                          request_limits(options_.max_request_bytes))) {
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.bad_requests").add(1);
        return error_response("null", "serve.parse",
                              "invalid request JSON: " + parse_error);
    }
    const std::string id = id_token(&doc);
    if (!doc.is_object()) {
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.bad_requests").add(1);
        return error_response(id, "serve.bad-request",
                              "request must be a JSON object");
    }

    const obs::json::Value* method_value = doc.find("method");
    if (!method_value || !method_value->is_string()) {
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.bad_requests").add(1);
        return error_response(id, "serve.bad-request",
                              "missing string field 'method'");
    }
    const std::string& method = method_value->string;

    std::uint64_t deadline_ms = options_.default_deadline_ms;
    if (const obs::json::Value* d = doc.find("deadline_ms"); d && d->is_number()) {
        std::optional<std::uint64_t> ms = obs::json::to_unsigned<std::uint64_t>(*d);
        if (!ms) {
            requests_failed_.fetch_add(1, std::memory_order_relaxed);
            obs::counter("serve.bad_requests").add(1);
            return error_response(
                id, "serve.bad-request",
                "field 'deadline_ms' must be a non-negative integer in range (got " +
                    number_text(d->number) + ")");
        }
        deadline_ms = *ms;
    }
    if (deadline_ms && ms_since(received) >= static_cast<double>(deadline_ms)) {
        // Expired while queued: reject before doing any work — that is
        // the whole point of admission-time deadlines.
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.deadline_exceeded").add(1);
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        return error_response(id, "serve.deadline",
                              "deadline of " + std::to_string(deadline_ms) +
                                  " ms expired before the request started");
    }

    std::string response;
    try {
        response = dispatch(id, method, doc, received, deadline_ms);
    } catch (const BadParam& e) {
        obs::counter("serve.bad_requests").add(1);
        response = error_response(id, "serve.bad-request", e.what());
    } catch (const std::exception& e) {
        // Per-request fault isolation: whatever escaped, only this
        // request fails; the daemon keeps serving.
        obs::counter("serve.internal_errors").add(1);
        response = error_response(id, "serve.internal",
                                  std::string("internal error: ") + e.what());
    } catch (...) {
        obs::counter("serve.internal_errors").add(1);
        response = error_response(id, "serve.internal",
                                  "internal error: unknown exception");
    }

    if (response.find("\"ok\":true") != std::string::npos)
        requests_ok_.fetch_add(1, std::memory_order_relaxed);
    else
        requests_failed_.fetch_add(1, std::memory_order_relaxed);

    housekeeping();
    return response;
}

std::string Engine::dispatch(const std::string& id, const std::string& method,
                             const obs::json::Value& doc,
                             Clock::time_point received,
                             std::uint64_t deadline_ms) {
    obs::ObsSpan span("serve." + method, "serve");

    auto ok_head = [&](std::string_view cache_state,
                       const std::string& model_hash) {
        std::string out = std::string("{\"schema\":") + quote(kSchema) +
                          ",\"id\":" + id + ",\"ok\":true,\"method\":" +
                          quote(method);
        if (!model_hash.empty())
            out += ",\"model_hash\":" + quote(model_hash) +
                   ",\"cache\":" + quote(cache_state);
        return out;
    };
    auto finish = [&](std::string head, std::string result_json) {
        bool deadline_hit =
            deadline_ms &&
            ms_since(received) > static_cast<double>(deadline_ms);
        if (deadline_hit) {
            deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
            obs::counter("serve.deadline_exceeded").add(1);
        }
        head += ",\"wall_ms\":" + number_text(ms_since(received));
        if (deadline_hit) head += ",\"deadline_exceeded\":true";
        return head + ",\"result\":" + result_json + "}";
    };

    if (method == "ping") return finish(ok_head("", ""), "{\"pong\":true}");

    if (method == "shutdown") {
        shutdown_.store(true, std::memory_order_relaxed);
        return finish(ok_head("", ""), "{\"draining\":true}");
    }

    if (method == "status") {
        ModelCache::Stats cache = cache_.stats();
        std::uint64_t uptime_ms =
            static_cast<std::uint64_t>(ms_since(started_));
        std::ostringstream result;
        result << "{\"uptime_ms\":" << uptime_ms << ",\"requests\":{\"total\":"
               << requests_total_.load(std::memory_order_relaxed)
               << ",\"ok\":" << requests_ok_.load(std::memory_order_relaxed)
               << ",\"failed\":"
               << requests_failed_.load(std::memory_order_relaxed)
               << ",\"deadline_exceeded\":"
               << deadline_exceeded_.load(std::memory_order_relaxed) << "}";
        // Always present so status consumers need no schema branch;
        // all-zero when the engine runs transport-free (tests, bench).
        static const TransportGauges kNoTransport;
        const TransportGauges& transport = gauges_ ? *gauges_ : kNoTransport;
        result << ",\"transport\":{\"queue_depth\":"
               << transport.queue_depth.load(std::memory_order_relaxed)
               << ",\"in_flight\":"
               << transport.in_flight.load(std::memory_order_relaxed)
               << ",\"connections\":"
               << transport.connections.load(std::memory_order_relaxed) << "}";
        result << ",\"cache\":{\"entries\":" << cache.entries
               << ",\"bytes\":" << cache.bytes
               << ",\"budget_bytes\":" << cache.budget_bytes
               << ",\"hits\":" << cache.hits << ",\"misses\":" << cache.misses
               << ",\"evictions\":" << cache.evictions << "}";
        // Explore reuse, server-side: memo hits say a request ran warm,
        // prefix reuse says a cold sweep was still incremental. Always
        // present (zeros before the first explore) so dashboards need no
        // schema branch.
        {
            std::lock_guard<std::mutex> lock(dse_mutex_);
            result << ",\"dse\":{\"explores\":" << dse_totals_.explores
                   << ",\"total\":{\"simulations\":" << dse_totals_.simulations
                   << ",\"cache_hits\":" << dse_totals_.cache_hits
                   << ",\"prefix_tasks_reused\":"
                   << dse_totals_.prefix_tasks_reused
                   << "},\"last\":{\"simulations\":" << dse_last_.simulations
                   << ",\"cache_hits\":" << dse_last_.cache_hits
                   << ",\"prefix_tasks_reused\":"
                   << dse_last_.prefix_tasks_reused
                   << ",\"backend\":" << quote(dse_last_.backend)
                   << "},\"by_backend\":{";
            bool first_backend = true;
            for (const auto& [name, count] : dse_by_backend_) {
                result << (first_backend ? "" : ",") << quote(name) << ":"
                       << count;
                first_backend = false;
            }
            result << "}}";
        }
        // Per-category counter rollup: "xml.nodes_parsed" lands under
        // "xml", "serve.cache_hits" under "serve" — the status consumer's
        // view of the whole obs registry without histogram noise.
        obs::MetricsSnapshot metrics = obs::metrics_snapshot();
        result << ",\"counters\":{";
        std::string category;
        bool first_category = true;
        bool first_counter = true;
        for (const auto& [name, value] : metrics.counters) {
            std::string prefix = name.substr(0, name.find('.'));
            std::string rest =
                name.size() > prefix.size() ? name.substr(prefix.size() + 1)
                                            : name;
            if (prefix != category) {
                if (!category.empty()) result << "}";
                result << (first_category ? "" : ",") << quote(prefix) << ":{";
                category = prefix;
                first_category = false;
                first_counter = true;
            }
            result << (first_counter ? "" : ",") << quote(rest) << ":" << value;
            first_counter = false;
        }
        if (!category.empty()) result << "}";
        result << "}}";
        return finish(ok_head("", ""), result.str());
    }

    if (method != "generate" && method != "explore" && method != "simulate") {
        obs::counter("serve.bad_requests").add(1);
        return error_response(id, "serve.unknown-method",
                              "unknown method '" + method +
                                  "' (want generate, explore, simulate, "
                                  "status, ping or shutdown)");
    }

    // ----- model resolution: bytes (admit) or hash (must be resident) ----
    std::shared_ptr<const ResidentModel> resident;
    std::string cache_state = "miss";
    const obs::json::Value* xmi = doc.find("model_xmi");
    const obs::json::Value* hash_field = doc.find("model_hash");
    if (xmi && xmi->is_string()) {
        std::string hash = ModelCache::hash_bytes(xmi->string);
        resident = cache_.find(hash);
        if (resident) {
            cache_state = "hit";
        } else {
            diag::DiagnosticEngine parse_engine;
            resident = cache_.admit(xmi->string, parse_engine);
            if (!resident)
                return error_response(id, "serve.model-invalid",
                                      "model failed to parse; see diagnostics",
                                      &parse_engine);
        }
    } else if (hash_field && hash_field->is_string()) {
        resident = cache_.find(hash_field->string);
        if (!resident)
            return error_response(
                id, "serve.unknown-model",
                "model '" + hash_field->string +
                    "' is not resident (evicted or never sent) — resend "
                    "model_xmi");
        cache_state = "hit";
    } else {
        obs::counter("serve.bad_requests").add(1);
        return error_response(id, "serve.bad-request",
                              "method '" + method +
                                  "' needs 'model_xmi' or 'model_hash'");
    }

    // Deadline piggyback: whatever budget the request has left becomes
    // the per-pass wall budget of the work below, so a long pass cannot
    // blow through the request deadline unbounded.
    std::uint64_t remaining_ms = 0;
    if (deadline_ms) {
        double elapsed = ms_since(received);
        remaining_ms =
            elapsed >= static_cast<double>(deadline_ms)
                ? 1
                : deadline_ms - static_cast<std::uint64_t>(elapsed);
    }

    if (method == "generate") {
        flow::GenerateOptions options;
        options.mapper.auto_allocate = param_bool(doc, "auto_allocate", false);
        options.mapper.max_processors =
            param_count<std::size_t>(doc, "max_processors", 0);
        options.iterations = param_count<std::size_t>(doc, "iterations", 100);
        options.with_kpn = param_bool(doc, "with_kpn", false);
        options.caam_c = param_bool(doc, "caam_c", true);
        options.caam_dot = param_bool(doc, "caam_dot", true);
        options.gen_jobs = param_count<std::size_t>(doc, "gen_jobs", 1);
        options.resilience.model_bytes = resident->bytes;
        options.resilience.pass_budget.wall_ms =
            param_count<std::uint64_t>(doc, "pass_budget_ms", 0);
        if (remaining_ms &&
            (!options.resilience.pass_budget.wall_ms ||
             options.resilience.pass_budget.wall_ms > remaining_ms))
            options.resilience.pass_budget.wall_ms = remaining_ms;
        if (!options_.checkpoint_dir.empty()) {
            options.resilience.checkpoint_dir = options_.checkpoint_dir;
            options.resilience.resume = true;
        }

        diag::DiagnosticEngine engine;
        flow::GenerateResult result =
            flow::generate(resident->model, options, engine, nullptr);

        if (result.status == flow::GenerateStatus::Failed)
            return error_response(id, "serve.generate-failed",
                                  "every strategy failed; see diagnostics",
                                  &engine);

        // Optional transactional commit: the staging-dir protocol means a
        // drain or crash mid-commit never leaves a torn artifact.
        std::string out_dir = param_string(doc, "out");
        std::size_t committed = 0;
        if (!out_dir.empty()) {
            flow::OutputTransaction tx(out_dir);
            for (const flow::StrategyResult& sr : result.results)
                for (const flow::GeneratedFile& f : sr.files)
                    tx.write(f.name, f.contents);
            tx.write("generate-manifest.json",
                     flow::to_manifest_json(result) + "\n");
            committed = tx.commit();
            // Remember the root for the housekeeping stale-staging GC.
            constexpr std::size_t kMaxOutRoots = 64;
            std::lock_guard<std::mutex> lock(out_roots_mutex_);
            if (out_roots_.size() < kMaxOutRoots) out_roots_.insert(out_dir);
        }

        bool return_files = param_bool(doc, "return_files", false);
        std::ostringstream r;
        r << "{\"status\":" << quote(flow::to_string(result.status))
          << ",\"subsystems\":" << result.partitions.subsystems.size()
          << ",\"files\":[";
        bool first = true;
        for (const flow::StrategyResult& sr : result.results)
            for (const flow::GeneratedFile& f : sr.files) {
                r << (first ? "" : ",") << "{\"name\":" << quote(f.name)
                  << ",\"strategy\":" << quote(sr.strategy)
                  << ",\"bytes\":" << f.contents.size()
                  << ",\"cached\":" << (sr.cached ? "true" : "false");
                if (return_files) r << ",\"contents\":" << quote(f.contents);
                r << "}";
                first = false;
            }
        r << "],\"quarantined\":[";
        first = true;
        for (const flow::QuarantineRecord& q : result.quarantined) {
            r << (first ? "" : ",") << "{\"strategy\":" << quote(q.strategy)
              << ",\"subsystem\":" << quote(q.subsystem)
              << ",\"reason\":" << quote(q.reason) << "}";
            first = false;
        }
        r << "]";
        if (!out_dir.empty())
            r << ",\"out\":" << quote(out_dir) << ",\"committed\":" << committed;
        r << "}";
        return finish(ok_head(cache_state, resident->hash), r.str());
    }

    if (method == "explore") {
        dse::ExploreOptions options;
        options.max_processors =
            param_count<std::size_t>(doc, "max_processors", 0);
        options.jobs = param_count<std::size_t>(doc, "jobs", 1);
        options.random_samples =
            param_count<std::size_t>(doc, "random_samples", 3);
        options.chunk_size = param_count<std::size_t>(doc, "chunk", 0);
        options.verify_full = param_bool(doc, "verify_full", false);
        options.backend = param_string(doc, "backend");
        if (!sim::find_backend(options.backend))
            return error_response(
                id, "serve.bad-request",
                sim::unknown_backend_message(options.backend));
        dse::ExploreResult result;
        try {
            result = dse::explore(resident->model, resident->comm, options);
        } catch (const std::exception& e) {
            return error_response(
                id, "serve.bad-model",
                "model is not explorable: " + std::string(e.what()));
        }
        if (result.candidates.empty())
            return error_response(id, "serve.bad-model",
                                  "nothing to explore: model has no threads");
        const dse::Candidate& best = result.candidates[result.best];
        std::ostringstream r;
        r << "{\"candidates\":" << result.candidates.size()
          << ",\"best\":{\"strategy\":" << quote(best.strategy)
          << ",\"processors\":" << best.processors
          << ",\"makespan\":" << number_text(best.makespan)
          << ",\"cpu_utilization\":" << number_text(best.cpu_utilization)
          << "},\"pareto\":[";
        for (std::size_t i = 0; i < result.pareto_front.size(); ++i) {
            const dse::Candidate& c = result.candidates[result.pareto_front[i]];
            r << (i ? "," : "") << "{\"processors\":" << c.processors
              << ",\"makespan\":" << number_text(c.makespan) << "}";
        }
        r << "],\"stats\":{\"simulations\":" << result.stats.simulations
          << ",\"cache_hits\":" << result.stats.cache_hits
          << ",\"duplicates_skipped\":" << result.stats.duplicates_skipped
          << ",\"prefix_tasks_reused\":" << result.stats.prefix_tasks_reused
          << ",\"chunks\":" << result.stats.chunks
          << ",\"verified\":" << result.stats.verified
          << ",\"jobs\":" << result.stats.jobs
          << ",\"backend\":" << quote(result.stats.backend) << "}}";
        {
            std::lock_guard<std::mutex> lock(dse_mutex_);
            dse_last_ = DseActivity{0, result.stats.simulations,
                                    result.stats.cache_hits,
                                    result.stats.prefix_tasks_reused,
                                    result.stats.backend};
            ++dse_totals_.explores;
            dse_totals_.simulations += result.stats.simulations;
            dse_totals_.cache_hits += result.stats.cache_hits;
            dse_totals_.prefix_tasks_reused +=
                result.stats.prefix_tasks_reused;
            ++dse_by_backend_[result.stats.backend];
        }
        return finish(ok_head(cache_state, resident->hash), r.str());
    }

    // method == "simulate": one cost-model estimate of the auto mapping.
    sim::MpsocParams params;
    params.cycles_per_work =
        param_number(doc, "cycles_per_work", params.cycles_per_work);
    params.gfifo_cost_per_byte = param_number(doc, "gfifo_cost_per_byte",
                                              params.gfifo_cost_per_byte);
    std::size_t max_processors =
        param_count<std::size_t>(doc, "max_processors", 0);
    std::string backend = param_string(doc, "backend");
    const sim::Backend* pricing = sim::find_backend(backend);
    if (!pricing)
        return error_response(id, "serve.bad-request",
                              sim::unknown_backend_message(backend));
    sim::MpsocResult sim_result;
    try {
        taskgraph::TaskGraph graph =
            core::build_task_graph(resident->model, resident->comm);
        taskgraph::Clustering clustering = core::auto_clustering(
            resident->model, resident->comm, max_processors);
        sim_result =
            pricing->compile(graph, params)->evaluator()->evaluate(clustering);
    } catch (const std::exception& e) {
        // A model the simulator cannot schedule (e.g. a feedback cycle in
        // the task graph) is an input property, not an internal error —
        // mirror the explore classification.
        return error_response(
            id, "serve.bad-model",
            "model is not simulatable: " + std::string(e.what()));
    }
    std::ostringstream r;
    r << "{\"makespan\":" << number_text(sim_result.makespan)
      << ",\"bus_busy\":" << number_text(sim_result.bus_busy)
      << ",\"inter_traffic\":" << number_text(sim_result.inter_traffic)
      << ",\"intra_traffic\":" << number_text(sim_result.intra_traffic)
      << ",\"bus_transfers\":" << sim_result.bus_transfers
      << ",\"processors\":" << sim_result.cpu_busy.size()
      << ",\"backend\":" << quote(pricing->name()) << "}";
    return finish(ok_head(cache_state, resident->hash), r.str());
}

void Engine::housekeeping() {
    // Bound the process-wide DSE memo so a long-lived daemon cannot grow
    // it without limit (the CLI one-shot never could).
    if (options_.dse_memo_max_entries)
        dse::trim_simulation_cache(options_.dse_memo_max_entries);
    // Directory-scanning GC passes are cheap enough to run on a cadence,
    // pointless to run per request.
    if (housekeeping_tick_.fetch_add(1, std::memory_order_relaxed) % 16 != 0)
        return;
    if (!options_.checkpoint_dir.empty() &&
        (options_.checkpoint_gc.max_age_seconds ||
         options_.checkpoint_gc.max_count)) {
        flow::CheckpointStore store(options_.checkpoint_dir);
        store.prune(options_.checkpoint_gc);
    }
    // Stale staging GC: `.uhcg-stage` debris under any output root a
    // generate request has committed into (a client killed mid-request
    // never commits its stage). Age-gated so a request running right now
    // keeps its live stage.
    if (options_.stale_stage_ttl_seconds) {
        std::vector<std::string> roots;
        {
            std::lock_guard<std::mutex> lock(out_roots_mutex_);
            roots.assign(out_roots_.begin(), out_roots_.end());
        }
        for (const std::string& root : roots)
            flow::prune_stale_stages(root, options_.stale_stage_ttl_seconds);
    }
}

}  // namespace uhcg::serve
