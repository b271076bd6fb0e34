#include "serve/cache.hpp"

#include <sstream>
#include <utility>

#include "core/hash.hpp"
#include "obs/obs.hpp"
#include "uml/xmi.hpp"

namespace uhcg::serve {
namespace {

/// The in-memory model (DOM-free typed elements + the mined comm model)
/// empirically lands within a small multiple of the XMI source; the
/// constant floor covers tiny models. Deliberately a coarse over-estimate:
/// the budget is a ceiling on growth, not a memory profiler.
std::size_t charge_for(std::size_t source_bytes) {
    return source_bytes * 4 + 4096;
}

/// serve.cache_bytes is a gauge over a monotonic Counter: writers hold the
/// cache mutex, so reset+add is not racy with other writers, and readers
/// see a recent whole value.
void publish_bytes_gauge(std::size_t bytes) {
    static obs::Counter& gauge = obs::counter("serve.cache_bytes");
    gauge.reset();
    gauge.add(bytes);
}

}  // namespace

ModelCache::ModelCache(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

std::string ModelCache::hash_bytes(std::string_view bytes) {
    std::ostringstream out;
    out << std::hex << core::fnv1a(bytes);
    return out.str();
}

void ModelCache::touch_locked(const std::string& hash) {
    auto it = index_.find(hash);
    if (it == index_.end()) return;
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second = lru_.begin();
}

std::shared_ptr<const ResidentModel> ModelCache::find(const std::string& hash) {
    static obs::Counter& hit_counter = obs::counter("serve.cache_hits");
    static obs::Counter& miss_counter = obs::counter("serve.cache_misses");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(hash);
    if (it == index_.end()) {
        ++misses_;
        miss_counter.add(1);
        return nullptr;
    }
    ++hits_;
    hit_counter.add(1);
    touch_locked(hash);
    return *index_.find(hash)->second;
}

std::shared_ptr<const ResidentModel> ModelCache::admit(
    std::string bytes, diag::DiagnosticEngine& engine) {
    std::string hash = hash_bytes(bytes);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(hash);
        if (it != index_.end()) {
            ++hits_;
            obs::counter("serve.cache_hits").add(1);
            touch_locked(hash);
            return *index_.find(hash)->second;
        }
    }

    // Parse outside the lock: concurrent requests admitting different
    // models must not serialize on each other's xml.parse. A duplicate
    // admit of the same model races benignly — the second insert finds
    // the key resident and is dropped.
    uml::Model model =
        uml::from_xmi_string(bytes, engine, "<serve:" + hash + ">");
    if (engine.has_errors()) return nullptr;
    core::CommModel comm = core::analyze_communication(model);

    auto entry = std::make_shared<ResidentModel>(
        ResidentModel{hash, std::move(bytes), std::move(model),
                      std::move(comm), 0});
    entry->charge_bytes = charge_for(entry->bytes.size());

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(hash);
    if (it != index_.end()) {
        touch_locked(hash);
        return *index_.find(hash)->second;
    }
    lru_.push_front(entry);
    index_.emplace(hash, lru_.begin());
    bytes_ += entry->charge_bytes;
    evict_over_budget_locked();
    publish_bytes_gauge(bytes_);
    return entry;
}

void ModelCache::evict_over_budget_locked() {
    if (!budget_bytes_) return;
    static obs::Counter& eviction_counter = obs::counter("serve.cache_evictions");
    // Never evict the most recent entry: the request that admitted it is
    // about to use it, and an over-sized single model must still serve.
    while (bytes_ > budget_bytes_ && lru_.size() > 1) {
        const auto& victim = lru_.back();
        bytes_ -= victim->charge_bytes;
        index_.erase(victim->hash);
        lru_.pop_back();
        ++evictions_;
        eviction_counter.add(1);
    }
}

ModelCache::Stats ModelCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {lru_.size(), bytes_, budget_bytes_, hits_, misses_, evictions_};
}

}  // namespace uhcg::serve
