// bench.hpp — shared plumbing of the perfbench binary.
//
// The binary runs one named workload in-process against the uhcg
// libraries, checks every output it produces, and reports either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// Every layer time is taken here, around the layer's public function, so
// the library code under measurement is never modified for the benchmark.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point start) {
    return ms_between(start, Clock::now());
}

/// Times one call; returns its wall time in milliseconds.
template <typename F>
double time_ms(F&& fn) {
    Clock::time_point start = Clock::now();
    fn();
    return ms_since(start);
}

struct Options {
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 45.0;
    bool trace = false;
    /// Scratch directory for the workload's files; emptied before use.
    fs::path work_dir;
    /// Worker threads the workload may use (the host's core count).
    std::size_t jobs = 1;
};

/// What one run reports: op accounting, metrics and the exact values that
/// must repeat across runs of one seed.
class Outcome {
public:
    void attempt(std::size_t n = 1) { attempted_ += n; }
    /// Counts one failed op; `why` is kept (first few) for stderr.
    void fail(const std::string& why);
    /// Checks `ok`; a false check fails the current op. Returns `ok`.
    bool check(bool ok, const std::string& why);

    void metric(const std::string& name, double value);
    /// An exact value (count or digest) that must repeat across runs and
    /// ops of one seed; recording a different value twice fails the run.
    void exact(const std::string& name, const std::string& value);
    void exact(const std::string& name, std::uint64_t value) {
        exact(name, std::to_string(value));
    }

    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }
    const std::vector<std::string>& errors() const { return errors_; }
    const std::map<std::string, double>& metrics() const { return metrics_; }
    const std::map<std::string, std::string>& exacts() const { return exact_; }

private:
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> errors_;
    std::map<std::string, double> metrics_;
    std::map<std::string, std::string> exact_;
};

// --- statistics --------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
    return percentile(std::move(values), 50.0);
}

/// Median of repeated set-ups: runs `setup` `reps` times, returning the
/// median wall time in seconds.
double median_setup_s(std::size_t reps, const std::function<void()>& setup);

/// Runs `op` back to back until `seconds` have elapsed (at least
/// `min_ops` times). Returns how many ops ran.
std::size_t run_for(double seconds, std::size_t min_ops,
                    const std::function<void()>& op);

// --- digests and files -------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset);
std::string hex16(std::uint64_t value);

/// Removes and recreates `dir`.
void fresh_dir(const fs::path& dir);

/// Name-sorted digest and byte total of every regular file under `root`
/// (relative paths), skipping files whose name is in `skip_digest` from
/// the digest (their bytes still count).
struct TreeDigest {
    std::uint64_t digest = kFnvOffset;
    std::size_t bytes = 0;
    std::size_t files = 0;
};
TreeDigest digest_tree(const fs::path& root,
                       const std::vector<std::string>& skip_digest = {});

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// splitmix64 stream for workload inputs (never for program behaviour).
struct Rng {
    std::uint64_t state;
    explicit Rng(std::uint64_t seed) : state(seed) {}
    std::uint64_t next();
    std::size_t below(std::size_t n) {
        return static_cast<std::size_t>(next() % n);
    }
};

/// Seed of input `stream` derived from the benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Log-log growth exponent of `t` between two sizes, rounded to 0.5.
double growth_exponent(double t_small, double t_large, double n_small,
                       double n_large);

// --- workloads ---------------------------------------------------------

void run_generate_scale(const Options& options, Outcome& out);
void run_serve_mix(const Options& options, Outcome& out);

}  // namespace perfbench
