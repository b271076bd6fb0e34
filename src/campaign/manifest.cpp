#include "campaign/manifest.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/hash.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "sim/backend.hpp"

namespace uhcg::campaign {

namespace fs = std::filesystem;

namespace {

void manifest_error(diag::DiagnosticEngine& engine, const std::string& origin,
                    const std::string& message) {
    engine.error(diag::codes::kCampaignManifest, origin + ": " + message);
}

/// Pulls an array of strings; a scalar string is accepted as a one-element
/// list (small manifests read better that way).
bool string_list(const obs::json::Value& value, std::vector<std::string>& out) {
    if (value.is_string()) {
        out.push_back(value.string);
        return true;
    }
    if (!value.is_array()) return false;
    for (const obs::json::Value& item : value.array) {
        if (!item.is_string()) return false;
        out.push_back(item.string);
    }
    return true;
}

bool read_size(const obs::json::Value& value, std::size_t& out) {
    std::optional<std::size_t> n = obs::json::to_unsigned<std::size_t>(value);
    if (n) out = *n;
    return n.has_value();
}

/// File-system-safe job directory component.
std::string sanitize(std::string_view text) {
    std::string out;
    for (char c : text) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
            c == '_')
            out += c;
        else
            out += '_';
    }
    return out.empty() ? std::string("model") : out;
}

std::string hex16(std::uint64_t value) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xF];
        value >>= 4;
    }
    return out;
}

}  // namespace

std::uint64_t cost_model_fingerprint(const sim::MpsocParams& params) {
    // Canonical text rendering, so equal parameters always hash equally
    // regardless of how the manifest spelled them.
    std::ostringstream canon;
    canon << "cycles_per_work=" << params.cycles_per_work
          << ";swfifo_cost_per_byte=" << params.swfifo_cost_per_byte
          << ";gfifo_cost_per_byte=" << params.gfifo_cost_per_byte
          << ";bus_setup=" << params.bus_setup
          << ";shared_bus=" << (params.shared_bus ? 1 : 0);
    return core::fnv1a(canon.str());
}

Manifest parse_manifest(const std::string& text,
                        diag::DiagnosticEngine& engine,
                        const std::string& origin) {
    Manifest manifest;
    obs::json::Value doc;
    std::string error;
    if (!obs::json::parse(text, doc, error)) {
        manifest_error(engine, origin, "invalid JSON: " + error);
        return manifest;
    }
    if (!doc.is_object()) {
        manifest_error(engine, origin, "manifest must be a JSON object");
        return manifest;
    }
    const obs::json::Value* schema = doc.find("schema");
    if (!schema || !schema->is_string() ||
        schema->string != "uhcg-campaign-v1") {
        manifest_error(engine, origin,
                       "schema must be \"uhcg-campaign-v1\"");
        return manifest;
    }

    const obs::json::Value* models = doc.find("models");
    if (!models || !string_list(*models, manifest.models) ||
        manifest.models.empty()) {
        manifest_error(engine, origin,
                       "\"models\" must be a non-empty list of paths");
        return manifest;
    }

    if (const obs::json::Value* strategies = doc.find("strategies")) {
        if (!string_list(*strategies, manifest.strategies)) {
            manifest_error(engine, origin, "\"strategies\" must be strings");
            return manifest;
        }
        for (const std::string& s : manifest.strategies)
            if (s != "generate" && s != "explore") {
                manifest_error(engine, origin,
                               "unknown strategy '" + s +
                                   "' (want generate or explore)");
                return manifest;
            }
    }
    if (manifest.strategies.empty())
        manifest.strategies = {"generate", "explore"};

    if (const obs::json::Value* backends = doc.find("backends")) {
        if (!string_list(*backends, manifest.backends)) {
            manifest_error(engine, origin, "\"backends\" must be strings");
            return manifest;
        }
        for (const std::string& b : manifest.backends)
            if (!sim::BackendRegistry::builtins().find(b)) {
                manifest_error(engine, origin,
                               sim::unknown_backend_message(b));
                return manifest;
            }
    }
    if (manifest.backends.empty())
        manifest.backends = {std::string(sim::kDefaultBackend)};

    if (const obs::json::Value* cms = doc.find("cost_models")) {
        if (!cms->is_array()) {
            manifest_error(engine, origin, "\"cost_models\" must be a list");
            return manifest;
        }
        for (const obs::json::Value& cm : cms->array) {
            if (!cm.is_object()) {
                manifest_error(engine, origin,
                               "each cost model must be an object");
                return manifest;
            }
            CostModel model;
            for (const auto& [key, value] : cm.object) {
                if (key == "name" && value.is_string()) {
                    model.name = sanitize(value.string);
                } else if (key == "cycles_per_work" && value.is_number()) {
                    model.params.cycles_per_work = value.number;
                } else if (key == "swfifo_cost_per_byte" &&
                           value.is_number()) {
                    model.params.swfifo_cost_per_byte = value.number;
                } else if (key == "gfifo_cost_per_byte" && value.is_number()) {
                    model.params.gfifo_cost_per_byte = value.number;
                } else if (key == "bus_setup" && value.is_number()) {
                    model.params.bus_setup = value.number;
                } else if (key == "shared_bus" && value.is_bool()) {
                    model.params.shared_bus = value.boolean;
                } else {
                    manifest_error(engine, origin,
                                   "unknown cost-model field '" + key + "'");
                    return manifest;
                }
            }
            manifest.cost_models.push_back(std::move(model));
        }
    }
    if (manifest.cost_models.empty()) manifest.cost_models.push_back({});

    if (const obs::json::Value* explore = doc.find("explore")) {
        if (!explore->is_object()) {
            manifest_error(engine, origin, "\"explore\" must be an object");
            return manifest;
        }
        for (const auto& [key, value] : explore->object) {
            bool ok = key == "max_processors"
                          ? read_size(value, manifest.max_processors)
                          : key == "random_samples"
                                ? read_size(value, manifest.random_samples)
                                : false;
            if (!ok) {
                manifest_error(engine, origin,
                               "bad explore option '" + key + "'");
                return manifest;
            }
        }
    }
    if (const obs::json::Value* generate = doc.find("generate")) {
        if (!generate->is_object()) {
            manifest_error(engine, origin, "\"generate\" must be an object");
            return manifest;
        }
        for (const auto& [key, value] : generate->object) {
            bool ok = false;
            if (key == "with_kpn" && value.is_bool()) {
                manifest.with_kpn = value.boolean;
                ok = true;
            } else if (key == "iterations") {
                ok = read_size(value, manifest.iterations);
            }
            if (!ok) {
                manifest_error(engine, origin,
                               "bad generate option '" + key + "'");
                return manifest;
            }
        }
    }
    return manifest;
}

Manifest load_manifest(const std::string& path,
                       diag::DiagnosticEngine& engine) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        engine.error(diag::codes::kCampaignManifest,
                     "cannot read manifest file: " + path);
        return {};
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return parse_manifest(text, engine, path);
}

std::vector<JobSpec> expand(const Manifest& manifest,
                            diag::DiagnosticEngine& engine) {
    obs::ObsSpan span("campaign.expand");
    // Resolve the model list first: directories scan for *.xmi (sorted,
    // non-recursive), files pass through. Order is canonical.
    std::vector<std::string> model_paths;
    for (const std::string& entry : manifest.models) {
        std::error_code ec;
        if (fs::is_directory(entry, ec)) {
            std::vector<std::string> found;
            for (const fs::directory_entry& file :
                 fs::directory_iterator(entry, ec)) {
                if (file.path().extension() == ".xmi")
                    found.push_back(file.path().string());
            }
            if (ec) {
                engine.error(diag::codes::kCampaignManifest,
                             "cannot scan model directory: " + entry);
                continue;
            }
            std::sort(found.begin(), found.end());
            if (found.empty())
                engine.warning(diag::codes::kCampaignManifest,
                               "model directory holds no .xmi files: " +
                                   entry);
            model_paths.insert(model_paths.end(), found.begin(), found.end());
        } else {
            model_paths.push_back(entry);
        }
    }

    // Options fingerprint: the per-strategy knobs that change job outputs.
    std::ostringstream opts;
    opts << "max_processors=" << manifest.max_processors
         << ";random_samples=" << manifest.random_samples
         << ";with_kpn=" << (manifest.with_kpn ? 1 : 0)
         << ";iterations=" << manifest.iterations;
    const std::string options_canon = opts.str();

    std::vector<JobSpec> jobs;
    for (const std::string& path : model_paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            engine.error(diag::codes::kCampaignManifest,
                         "cannot read model file: " + path);
            continue;
        }
        auto bytes = std::make_shared<std::string>(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        std::string stem = sanitize(fs::path(path).stem().string());
        for (const std::string& strategy : manifest.strategies)
            for (std::size_t ci = 0; ci < manifest.cost_models.size(); ++ci)
                for (const std::string& backend : manifest.backends) {
                    const CostModel& cm = manifest.cost_models[ci];
                    std::uint64_t hash = core::fnv1a(*bytes);
                    hash = core::fnv1a(stem, hash);
                    hash = core::fnv1a(strategy, hash);
                    hash = core::fnv1a(backend, hash);
                    hash = core::fnv1a(cm.name, hash);
                    hash = core::fnv1a(
                        hex16(cost_model_fingerprint(cm.params)), hash);
                    hash = core::fnv1a(options_canon, hash);
                    JobSpec job;
                    job.id = hex16(hash);
                    job.dir = stem + "__" + strategy + "__" +
                              sanitize(backend) + "__" + cm.name + "__" +
                              job.id.substr(0, 8);
                    job.model_path = path;
                    job.model_name = stem;
                    job.strategy = strategy;
                    job.backend = backend;
                    job.cost_model = cm;
                    job.model_bytes = bytes;
                    job.manifest = &manifest;
                    jobs.push_back(std::move(job));
                }
    }
    // Exact duplicates (the same model listed twice, two spellings of one
    // cost model) collapse to one job — two workers must never race on one
    // job directory.
    std::vector<JobSpec> unique;
    std::set<std::string> seen;
    for (JobSpec& job : jobs)
        if (seen.insert(job.id).second) unique.push_back(std::move(job));
    if (unique.size() != jobs.size())
        obs::counter("campaign.jobs_deduped")
            .add(jobs.size() - unique.size());
    obs::counter("campaign.jobs_expanded").add(unique.size());
    return unique;
}

}  // namespace uhcg::campaign
