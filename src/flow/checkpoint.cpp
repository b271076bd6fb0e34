#include "flow/checkpoint.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/hash.hpp"
#include "flow/txout.hpp"
#include "obs/obs.hpp"

namespace uhcg::flow {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSchema = "uhcg-flow-checkpoint-v1";

// One length-prefixed field: "<tag> <byte-count>\n<bytes>\n". Byte counts
// make the format safe for arbitrary generated contents (newlines, quotes).
void put_field(std::ostringstream& out, const char* tag,
               std::string_view bytes) {
    out << tag << ' ' << bytes.size() << '\n' << bytes << '\n';
}

bool get_field(std::istream& in, const std::string& expected_tag,
               std::string& bytes) {
    std::string tag;
    std::size_t size = 0;
    if (!(in >> tag >> size) || tag != expected_tag) return false;
    if (in.get() != '\n') return false;
    bytes.resize(size);
    if (size && !in.read(bytes.data(), static_cast<std::streamsize>(size)))
        return false;
    return in.get() == '\n';
}

}  // namespace

CheckpointStore::CheckpointStore(fs::path dir) : dir_(std::move(dir)) {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    // Failure surfaces on save(); load() just misses.
}

std::string CheckpointStore::key(std::string_view model_bytes,
                                 std::string_view options_fingerprint,
                                 std::string_view strategy,
                                 std::string_view subsystem) {
    return key(core::fnv1a(model_bytes), options_fingerprint, strategy, subsystem);
}

std::string CheckpointStore::key(std::uint64_t model_hash,
                                 std::string_view options_fingerprint,
                                 std::string_view strategy,
                                 std::string_view subsystem) {
    // Chain the fields through one running hash, separated so that the
    // concatenation of two fields can't collide with a shifted split.
    std::uint64_t h = core::fnv1a("|", model_hash);
    h = core::fnv1a(options_fingerprint, h);
    h = core::fnv1a("|", h);
    h = core::fnv1a(strategy, h);
    h = core::fnv1a("|", h);
    h = core::fnv1a(subsystem, h);
    std::ostringstream out;
    out << std::hex << h;
    return std::string(strategy) + "-" + std::string(subsystem) + "-" +
           out.str();
}

fs::path CheckpointStore::path_for(const std::string& key) const {
    return dir_ / (key + ".ckpt");
}

bool CheckpointStore::load(const std::string& key, StrategyResult& out) const {
    std::ifstream in(path_for(key), std::ios::binary);
    if (!in) return false;
    std::string schema;
    if (!std::getline(in, schema) || schema != kSchema) return false;

    StrategyResult loaded;
    loaded.ok = true;
    std::string count_text;
    if (!get_field(in, "strategy", loaded.strategy)) return false;
    if (!get_field(in, "subsystem", loaded.subsystem)) return false;
    if (!get_field(in, "files", count_text)) return false;
    std::size_t count = 0;
    try {
        count = std::stoul(count_text);
    } catch (...) {
        return false;
    }
    for (std::size_t i = 0; i < count; ++i) {
        GeneratedFile file;
        if (!get_field(in, "name", file.name)) return false;
        if (!get_field(in, "data", file.contents)) return false;
        loaded.files.push_back(std::move(file));
    }
    out = std::move(loaded);
    return true;
}

void CheckpointStore::save(const std::string& key,
                           const StrategyResult& result) const {
    std::ostringstream out;
    out << kSchema << '\n';
    put_field(out, "strategy", result.strategy);
    put_field(out, "subsystem", result.subsystem);
    put_field(out, "files", std::to_string(result.files.size()));
    for (const GeneratedFile& file : result.files) {
        put_field(out, "name", file.name);
        put_field(out, "data", file.contents);
    }
    write_file_atomic(path_for(key), out.str());
}

void CheckpointStore::drop(const std::string& key) const {
    std::error_code ec;
    fs::remove(path_for(key), ec);
}

CheckpointStore::PruneResult CheckpointStore::prune(
    const PruneOptions& options) const {
    PruneResult result;
    if (!options.max_age_seconds && !options.max_count) return result;

    struct Entry {
        fs::file_time_type mtime;
        fs::path path;
    };
    std::vector<Entry> entries;
    std::error_code ec;
    for (const auto& item : fs::directory_iterator(dir_, ec)) {
        if (ec) break;
        if (!item.is_regular_file(ec) || item.path().extension() != ".ckpt")
            continue;
        fs::file_time_type mtime = fs::last_write_time(item.path(), ec);
        if (ec) continue;  // vanished or unreadable — someone else's problem
        entries.push_back({mtime, item.path()});
    }
    result.scanned = entries.size();

    // Oldest first; the file name breaks mtime ties so two runs over the
    // same directory always pick the same victims.
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
        if (a.mtime != b.mtime) return a.mtime < b.mtime;
        return a.path.filename() < b.path.filename();
    });

    std::size_t victims = 0;
    if (options.max_age_seconds) {
        const auto cutoff = fs::file_time_type::clock::now() -
                            std::chrono::seconds(options.max_age_seconds);
        while (victims < entries.size() && entries[victims].mtime < cutoff)
            ++victims;
    }
    if (options.max_count && entries.size() - victims > options.max_count)
        victims = entries.size() - options.max_count;

    static obs::Counter& pruned_counter = obs::counter("flow.checkpoints_pruned");
    for (std::size_t i = 0; i < victims; ++i) {
        std::error_code remove_ec;
        if (fs::remove(entries[i].path, remove_ec) && !remove_ec) {
            ++result.pruned;
            pruned_counter.add(1);
        }
    }
    return result;
}

}  // namespace uhcg::flow
