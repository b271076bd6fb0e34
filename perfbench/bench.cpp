// bench.cpp — perfbench entry point and shared helpers.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Prints one `host` line, then as its last line one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}},
//    "exact": {name: value}, "errors": [...]}
// `perfbench/run.py` builds this binary, checks `exact` against earlier
// runs of the same seed and reduces the line to the reported result.
#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "diag/diag.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (run.py checks the names).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"ops_per_s", "1/s"},      {"op_ms.p50", "ms"},
    {"op_ms.p99", "ms"},       {"op_ms.cold.p50", "ms"},
    {"op_ms.warm.p50", "ms"},  {"peak_rss_mb", "MiB"},
    {"output_bytes", "bytes"},
};

const MetricSpec kPerLayer[] = {
    {"xml.parse.ms", "ms"},
    {"xml.bytes", "bytes"},
    {"uml.xmi_load.ms", "ms"},
    {"uml.check.ms", "ms"},
    {"core.comm.ms", "ms"},
    {"core.allocate.ms", "ms"},
    {"core.mapping.ms", "ms"},
    {"core.mapping.trace_links", "count"},
    {"caam.lift.ms", "ms"},
    {"caam.lift.blocks", "count"},
    {"caam.channels.ms", "ms"},
    {"caam.channels.created", "count"},
    {"caam.delays.ms", "ms"},
    {"caam.delays.inserted", "count"},
    {"caam.validate.ms", "ms"},
    {"caam.channels.growth", "exponent"},
    {"caam.delays.growth", "exponent"},
    {"sim.schedulability.ms", "ms"},
    {"sim.schedulability.blocks", "count"},
    {"sim.estimate.ms", "ms"},
    {"sim.mpsoc.ms", "ms"},
    {"sim.mpsoc.evals", "count"},
    {"emit.mdl.ms", "ms"},
    {"emit.c.ms", "ms"},
    {"emit.dot.ms", "ms"},
    {"emit.threads.ms", "ms"},
    {"emit.bytes", "bytes"},
    {"fsm.emit.ms", "ms"},
    {"fsm.states", "count"},
    {"kpn.map.ms", "ms"},
    {"flow.partition.ms", "ms"},
    {"flow.dispatch.ms", "ms"},
    {"flow.gen_jobs.speedup", "ratio"},
    {"flow.trace.coverage", "ratio"},
    {"flow.trace.overhead_ms", "ms"},
    {"txout.commit.ms", "ms"},
    {"txout.files", "count"},
    {"dse.explore.ms", "ms"},
    {"dse.taskgraph.ms", "ms"},
    {"dse.cluster.ms", "ms"},
    {"dse.simulate.ms", "ms"},
    {"dse.candidates", "count"},
    {"dse.unique_clusterings", "count"},
    {"dse.simulations", "count"},
    {"dse.cache_hits", "count"},
    {"dse.partial_reuse", "count"},
    {"dse.speedup", "ratio"},
    {"serve.exec_ms", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.lookups", "count"},
    {"serve.cache.resident_models", "count"},
    {"campaign.expand.ms", "ms"},
    {"campaign.jobs", "count"},
    {"campaign.quarantined", "count"},
    {"campaign.supervision_ms", "ms"},
};

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
                 why);
    return 2;
}

}  // namespace

// --- Outcome -------------------------------------------------------------

void Outcome::fail(const std::string& why) {
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(why);
}

bool Outcome::check(bool ok, const std::string& why) {
    if (!ok) fail(why);
    return ok;
}

void Outcome::metric(const std::string& name, double value) {
    metrics_[name] = value;
}

void Outcome::exact(const std::string& name, const std::string& value) {
    auto [it, inserted] = exact_.emplace(name, value);
    if (!inserted && it->second != value)
        fail("exact value '" + name + "' changed within the run: " +
             it->second + " -> " + value);
}

// --- statistics ----------------------------------------------------------

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double median_setup_s(std::size_t reps, const std::function<void()>& setup) {
    std::vector<double> times;
    for (std::size_t i = 0; i < reps; ++i) times.push_back(time_ms(setup));
    return median(times) / 1000.0;
}

std::size_t run_for(double seconds, std::size_t min_ops,
                    const std::function<void()>& op) {
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::size_t ops = 0;
    while (ops < min_ops || Clock::now() < deadline) {
        op();
        ++ops;
    }
    return ops;
}

// --- digests and files ---------------------------------------------------

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string hex16(std::uint64_t value) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

void fresh_dir(const fs::path& dir) {
    fs::remove_all(dir);
    fs::create_directories(dir);
}

TreeDigest digest_tree(const fs::path& root,
                       const std::vector<std::string>& skip_digest) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(root))
        if (entry.is_regular_file()) files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    TreeDigest tree;
    for (const fs::path& path : files) {
        std::ifstream in(path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        tree.bytes += bytes.size();
        ++tree.files;
        if (std::find(skip_digest.begin(), skip_digest.end(),
                      path.filename().string()) != skip_digest.end())
            continue;
        tree.digest = fnv1a(fs::relative(path, root).generic_string(),
                            tree.digest);
        tree.digest = fnv1a(bytes, tree.digest);
    }
    return tree;
}

double peak_rss_mb() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t Rng::next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
    return rng.next() % 1000000007ULL;
}

double growth_exponent(double t_small, double t_large, double n_small,
                       double n_large) {
    if (t_small <= 0 || t_large <= 0 || n_small <= 0 || n_large <= n_small)
        return 0.0;
    double slope = std::log(t_large / t_small) / std::log(n_large / n_small);
    return std::round(slope * 2.0) / 2.0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            options.workload = value;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0') return usage("--seed wants an integer");
        } else if (key == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || options.seconds <= 0)
                return usage("--seconds wants a positive number");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace wants 0 or 1");
            options.trace = value == "1";
        } else if (key == "--work-dir") {
            options.work_dir = value;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 == 0) return usage("arguments come in pairs");
    if (options.work_dir.empty()) return usage("--work-dir is required");
    unsigned hw = std::thread::hardware_concurrency();
    options.jobs = hw ? hw : 1;

    const std::map<std::string, void (*)(const Options&, Outcome&)> workloads{
        {"generate-scale", run_generate_scale},
        {"serve-mix", run_serve_mix},
    };
    auto workload = workloads.find(options.workload);
    if (workload == workloads.end()) return usage("unknown workload");

    std::cout << "host cores=" << options.jobs
              << " build_type=" << PERFBENCH_BUILD_TYPE
              << " compiler=" << PERFBENCH_COMPILER
              << " workload=" << options.workload << " seed=" << options.seed
              << " trace=" << (options.trace ? 1 : 0) << std::endl;

    Outcome out;
    try {
        fresh_dir(options.work_dir);
        workload->second(options, out);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }
    fs::remove_all(options.work_dir);
    if (out.attempted() == 0) {
        std::fprintf(stderr, "perfbench: no op was attempted\n");
        return 1;
    }

    std::ostringstream line;
    line << "{\"correct\": " << (out.failed() == 0 ? "true" : "false")
         << ", \"attempted\": " << out.attempted()
         << ", \"failed\": " << out.failed() << ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricSpec& spec, double value) {
        line << (first ? "" : ", ") << '"' << spec.name
             << "\": {\"value\": " << json_number(value) << ", \"unit\": \""
             << spec.unit << "\"}";
        first = false;
    };
    if (options.trace) {
        // Layers this workload does not exercise report 0: no work there.
        for (const MetricSpec& spec : kPerLayer) {
            auto it = out.metrics().find(spec.name);
            emit(spec, it == out.metrics().end() ? 0.0 : it->second);
        }
    } else {
        out.metric("peak_rss_mb", peak_rss_mb());
        for (const MetricSpec& spec : kEndToEnd) {
            auto it = out.metrics().find(spec.name);
            if (it == out.metrics().end()) {
                std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                             spec.name);
                return 1;
            }
            emit(spec, it->second);
        }
    }
    line << "}, \"exact\": {";
    first = true;
    for (const auto& [name, value] : out.exacts()) {
        line << (first ? "" : ", ") << '"' << uhcg::diag::json_escape(name)
             << "\": \"" << uhcg::diag::json_escape(value) << '"';
        first = false;
    }
    line << "}, \"errors\": [";
    first = true;
    for (const std::string& e : out.errors()) {
        line << (first ? "" : ", ") << '"' << uhcg::diag::json_escape(e)
             << '"';
        first = false;
    }
    line << "]}";
    std::cout << line.str() << std::endl;
    return 0;
}
