// checkpoint.hpp — durable checkpoints for `uhcg generate --resume`.
//
// Each successfully completed (strategy × subsystem) unit of a generate
// run serializes its generated files to one checkpoint file, keyed by a
// content hash over (serialized model, generation options, strategy,
// subsystem). `--resume` replays matching checkpoints instead of
// re-running the unit: outputs are byte-identical by construction (the
// bytes themselves are replayed) and any input change — model edit,
// different options — changes the key and forces a re-run. Checkpoints
// are written incrementally (one atomic file per completed unit), so a
// killed run resumes from the last completed strategy.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "flow/strategy.hpp"

namespace uhcg::flow {

class CheckpointStore {
public:
    /// Uses (and lazily creates) `dir` for checkpoint files.
    explicit CheckpointStore(std::filesystem::path dir);

    const std::filesystem::path& dir() const { return dir_; }

    /// Content-hash key of one generate unit. Any change to the model
    /// bytes, the options fingerprint, or the routing changes the key.
    static std::string key(std::string_view model_bytes,
                           std::string_view options_fingerprint,
                           std::string_view strategy,
                           std::string_view subsystem);
    /// The same key from `model_hash` = core::fnv1a(model_bytes), so a run
    /// hashes its model once for all of its units.
    static std::string key(std::uint64_t model_hash,
                           std::string_view options_fingerprint,
                           std::string_view strategy,
                           std::string_view subsystem);

    /// Loads the checkpoint for `key` into `out` (strategy, subsystem,
    /// files). Returns false when absent, unreadable, or corrupt — a
    /// damaged checkpoint is treated as a miss, never an error.
    bool load(const std::string& key, StrategyResult& out) const;

    /// Serializes a completed unit under `key` (temp file + atomic
    /// rename). Only call for successful results; failed strategies must
    /// re-run on resume.
    void save(const std::string& key, const StrategyResult& result) const;

    /// Removes the checkpoint for `key` if present (used when a unit that
    /// previously succeeded fails on a re-run with the same inputs).
    void drop(const std::string& key) const;

    /// Garbage collection for the checkpoint directory. Without it, every
    /// model edit leaves its stale keyed entries behind forever.
    struct PruneOptions {
        /// Entries whose file is older than this are removed; 0 = no age
        /// bound.
        std::uint64_t max_age_seconds = 0;
        /// Keep at most this many entries (newest win); 0 = no count
        /// bound.
        std::size_t max_count = 0;
    };
    struct PruneResult {
        std::size_t scanned = 0;
        std::size_t pruned = 0;
    };

    /// Applies both bounds (age first, then count, oldest-first with the
    /// file name as a deterministic tie-break). Unreadable entries are
    /// skipped, never fatal. Each removal bumps the
    /// `flow.checkpoints_pruned` counter.
    PruneResult prune(const PruneOptions& options) const;

private:
    std::filesystem::path path_for(const std::string& key) const;
    std::filesystem::path dir_;
};

}  // namespace uhcg::flow
