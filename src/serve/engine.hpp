// engine.hpp — the serve daemon's request engine (transport-free).
//
// One `Engine` maps a `uhcg-serve-v1` request payload (JSON, already
// de-framed) to exactly one response payload. Keeping it free of sockets
// makes the robustness contract directly testable: the malformed-request
// corpus, deadline handling, cache behaviour and fault isolation all
// exercise `handle()` in-process, and the socket `Server` stays a thin
// queue-and-threads shell around it.
//
// Request schema (one JSON object per frame):
//   { "method": "generate|explore|simulate|status|ping|shutdown",
//     "id": <string|number, echoed back>,
//     "deadline_ms": <number, optional — falls back to the server default>,
//     "model_xmi": "<serialized XMI>",          // or:
//     "model_hash": "<hex key from a previous response>",
//     "params": { ... method-specific, see DESIGN.md §12 } }
//
// explore and simulate price on the `backend` param: "dynamic-fifo" (the
// default, also for "") or "analytic" (sim/backend.hpp); any other name
// answers `serve.bad-request` with sim::unknown_backend_message.
//
// Response schema:
//   { "schema": "uhcg-serve-v1", "id": ..., "ok": true|false,
//     "method": "...", "model_hash": "...", "cache": "hit|miss",
//     "wall_ms": ..., "result": {...} }            // ok = true
//   { "schema": "uhcg-serve-v1", "id": ..., "ok": false,
//     "error": {"code": "serve.*", "message": "..."},
//     "diagnostics": [{"severity","code","message"}...] }  // ok = false
//
// Robustness contract: `handle()` never throws and never terminates the
// process — malformed JSON, an invalid model, a quarantined strategy, an
// expired deadline or an internal exception each produce a structured
// error response for *that request only*.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>

#include "flow/checkpoint.hpp"
#include "serve/cache.hpp"
#include "serve/frame.hpp"

namespace uhcg::obs::json {
class Value;
}

namespace uhcg::serve {

struct EngineOptions {
    /// Byte budget for the resident model cache; 0 = unbounded.
    std::size_t cache_budget_bytes = 256u << 20;
    /// Deadline applied to requests that do not carry their own;
    /// 0 = none.
    std::uint64_t default_deadline_ms = 0;
    /// LRU bound for the process-wide DSE memo cache, enforced after
    /// every explore request; 0 disables trimming.
    std::size_t dse_memo_max_entries = 1u << 14;
    /// Server-side checkpoint directory for generate requests; warm
    /// re-generates of an unchanged model replay completed units
    /// byte-identically. Empty disables checkpointing.
    std::string checkpoint_dir;
    /// Periodic GC for `checkpoint_dir` (both-zero = no GC).
    flow::CheckpointStore::PruneOptions checkpoint_gc;
    /// Stale `.uhcg-stage` staging directories under output roots that
    /// generate requests have written to are pruned on the housekeeping
    /// cadence once older than this (debris of clients killed mid-run);
    /// 0 disables the GC.
    std::uint64_t stale_stage_ttl_seconds = 3600;
    /// Upper bound fed to the hardened JSON parser; transports should
    /// pass their frame limit so the two layers agree.
    std::size_t max_request_bytes = kDefaultMaxFrameBytes;
};

/// Live occupancy gauges owned by the transport; `status` reads them.
/// All-zero when the engine runs transport-free (tests, bench).
struct TransportGauges {
    std::atomic<std::size_t> queue_depth{0};
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::size_t> connections{0};
};

class Engine {
public:
    using Clock = std::chrono::steady_clock;

    explicit Engine(EngineOptions options);

    /// Processes one request; `received` is when the transport finished
    /// reading the frame, so queue wait counts against the deadline.
    /// Always returns exactly one response payload; never throws.
    std::string handle(std::string_view request_json,
                       Clock::time_point received);
    std::string handle(std::string_view request_json) {
        return handle(request_json, Clock::now());
    }

    /// Rejection payloads the transport sends without dispatching
    /// (admission control and drain). Best-effort: the request id is
    /// echoed when the payload parses at all.
    std::string overloaded_response(std::string_view request_json,
                                    std::size_t queue_limit) const;
    std::string shutting_down_response(std::string_view request_json) const;
    /// For transport-level framing violations (oversized declared
    /// length); no id, since no payload was read.
    static std::string frame_error_response(std::string_view message);

    /// Set once a `shutdown` request was handled; the transport drains.
    bool shutdown_requested() const {
        return shutdown_.load(std::memory_order_relaxed);
    }

    void set_gauges(const TransportGauges* gauges) { gauges_ = gauges; }

    ModelCache& cache() { return cache_; }
    const EngineOptions& options() const { return options_; }

private:
    std::string dispatch(const std::string& id, const std::string& method,
                         const obs::json::Value& doc,
                         Clock::time_point received,
                         std::uint64_t deadline_ms);
    void housekeeping();

    EngineOptions options_;
    ModelCache cache_;
    Clock::time_point started_;
    std::atomic<bool> shutdown_{false};
    std::atomic<std::uint64_t> requests_total_{0};
    std::atomic<std::uint64_t> requests_ok_{0};
    std::atomic<std::uint64_t> requests_failed_{0};
    std::atomic<std::uint64_t> deadline_exceeded_{0};
    std::atomic<std::uint64_t> housekeeping_tick_{0};
    /// Output roots generate requests committed into — the stale-staging
    /// GC's scan list. Bounded; a daemon serving arbitrarily many distinct
    /// roots GCs the first kMaxOutRoots (the common case is one or two).
    std::mutex out_roots_mutex_;
    std::set<std::string> out_roots_;
    const TransportGauges* gauges_ = nullptr;

    /// Per-explore reuse accounting (plain integers mirroring
    /// dse::ExploreStats) so `status` can show whether explore requests
    /// run warm (memo hits) or cold-but-incremental (prefix reuse)
    /// server-side. `totals` accumulate over the process; `last` is the
    /// most recent explore request.
    struct DseActivity {
        std::uint64_t explores = 0;
        std::uint64_t simulations = 0;
        std::uint64_t cache_hits = 0;
        std::uint64_t prefix_tasks_reused = 0;
        /// Simulation backend of the most recent explore (only meaningful
        /// on `last`; empty before the first request).
        std::string backend;
    };
    mutable std::mutex dse_mutex_;
    DseActivity dse_totals_;
    DseActivity dse_last_;
    /// Explore count per simulation backend, for the status rollup —
    /// shows whether clients actually exercise analytic.
    std::map<std::string, std::uint64_t> dse_by_backend_;
};

}  // namespace uhcg::serve
