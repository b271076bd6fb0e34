#include "campaign/corpus.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/hash.hpp"
#include "diag/diag.hpp"
#include "flow/txout.hpp"
#include "obs/obs.hpp"
#include "uml/builder.hpp"
#include "uml/xmi.hpp"

namespace uhcg::campaign {

namespace {

/// splitmix64 — tiny, seedable, stable across platforms. std::mt19937
/// would work too, but its distribution helpers are not guaranteed
/// bit-identical across standard libraries; corpus bytes must be.
struct Rng {
    std::uint64_t state;
    explicit Rng(std::uint64_t seed) : state(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, bound) — bound > 0.
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }
    /// Uniform integer in [lo, hi] inclusive.
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
        return lo + below(hi - lo + 1);
    }
};

void check_options(const CorpusOptions& options) {
    if (options.models == 0)
        throw std::invalid_argument("corpus: models must be >= 1");
    if (options.min_threads < 2)
        throw std::invalid_argument("corpus: min_threads must be >= 2");
    if (options.min_threads > options.max_threads)
        throw std::invalid_argument("corpus: min_threads > max_threads");
    if (options.channel_density > 100)
        throw std::invalid_argument("corpus: channel_density > 100");
    if (options.rate_min > options.rate_max || options.rate_min < 0)
        throw std::invalid_argument("corpus: bad rate bounds");
    if (options.feedback_cycles > options.models)
        throw std::invalid_argument("corpus: feedback_cycles > models");
}

std::string thread_name(std::size_t i) { return "T" + std::to_string(i); }

std::string hex16(std::uint64_t value) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xF];
        value >>= 4;
    }
    return out;
}

/// Rate with a short decimal rendering (halves), so XMI stays tidy.
double draw_rate(Rng& rng, const CorpusOptions& options) {
    std::uint64_t steps =
        static_cast<std::uint64_t>((options.rate_max - options.rate_min) * 2);
    if (steps == 0) return options.rate_min;
    return options.rate_min +
           static_cast<double>(rng.below(steps + 1)) / 2.0;
}

}  // namespace

uml::Model synth_model(const CorpusOptions& options, std::size_t index) {
    check_options(options);
    if (index >= options.models)
        throw std::invalid_argument("corpus: model index out of range");
    // Mix the index into the seed so models differ but each is stable
    // regardless of how many siblings the corpus has.
    Rng rng(options.seed * 0x100000001B3ULL + index * 0x9E3779B97F4A7C15ULL +
            1);

    const std::size_t threads = static_cast<std::size_t>(
        rng.range(options.min_threads, options.max_threads));
    const bool cyclic =
        index >= options.models - options.feedback_cycles;

    // Channel plan: a spanning condition (every thread past the first
    // reads from one earlier thread) plus density-drawn extras.
    struct Channel {
        std::size_t from, to;
        double rate;
    };
    std::vector<Channel> channels;
    std::vector<std::vector<bool>> has(threads,
                                       std::vector<bool>(threads, false));
    for (std::size_t to = 1; to < threads; ++to) {
        std::size_t from = static_cast<std::size_t>(rng.below(to));
        has[from][to] = true;
        channels.push_back({from, to, draw_rate(rng, options)});
    }
    for (std::size_t from = 0; from + 1 < threads; ++from)
        for (std::size_t to = from + 1; to < threads; ++to) {
            if (has[from][to]) continue;
            if (rng.below(100) < options.channel_density) {
                has[from][to] = true;
                channels.push_back({from, to, draw_rate(rng, options)});
            }
        }
    if (cyclic) {
        // Close a feedback loop: the last thread reports back to the
        // first, which (with the spanning chain) forms a task-graph cycle.
        channels.push_back({threads - 1, 0, draw_rate(rng, options)});
    }

    uml::ModelBuilder b("corpus_" + std::to_string(index));
    b.platform();
    for (std::size_t i = 0; i < threads; ++i) b.thread(thread_name(i));

    auto sd = b.seq("corpus_interactions");
    for (std::size_t i = 0; i < threads; ++i) {
        std::string var = "v" + std::to_string(i);
        std::vector<std::string> inputs;
        for (const Channel& c : channels)
            if (c.to == i && c.from < i)  // forward data only feeds args
                inputs.push_back("v" + std::to_string(c.from));
        auto msg = sd.message(thread_name(i), "Platform", "work");
        if (inputs.empty()) msg.arg("1.0");
        for (const std::string& in : inputs) msg.arg(in);
        msg.result(var);
        for (const Channel& c : channels)
            if (c.from == i)
                sd.message(thread_name(i), thread_name(c.to), "Set" + var)
                    .arg(var)
                    .data(c.rate);
    }
    return b.take();
}

CorpusResult write_corpus(const CorpusOptions& options,
                          const std::filesystem::path& dir) {
    check_options(options);
    obs::ObsSpan span("campaign.corpus");
    CorpusResult result;

    flow::OutputTransaction tx(dir);
    std::ostringstream index_json;
    index_json << "{\n  \"schema\": \"uhcg-corpus-v1\",\n"
               << "  \"seed\": " << options.seed << ",\n"
               << "  \"options\": {\"models\": " << options.models
               << ", \"min_threads\": " << options.min_threads
               << ", \"max_threads\": " << options.max_threads
               << ", \"channel_density\": " << options.channel_density
               << ", \"feedback_cycles\": " << options.feedback_cycles
               << ", \"rate_min\": " << options.rate_min
               << ", \"rate_max\": " << options.rate_max << "},\n"
               << "  \"models\": [\n";

    for (std::size_t i = 0; i < options.models; ++i) {
        uml::Model model = synth_model(options, i);
        std::string xmi = uml::to_xmi_string(model);

        std::ostringstream name;
        name << "corpus-" << std::setfill('0') << std::setw(3) << i
             << ".xmi";

        CorpusModelInfo info;
        info.file = name.str();
        info.threads = 0;
        std::size_t channels = 0;
        for (const uml::SequenceDiagram* diagram : model.sequence_diagrams())
            for (const uml::Message* message : diagram->messages())
                if (message->operation_name().rfind("Set", 0) == 0)
                    ++channels;
        for (const uml::ObjectInstance* obj : model.objects())
            if (obj->is_thread()) ++info.threads;
        info.channels = channels;
        info.cyclic = i >= options.models - options.feedback_cycles;
        info.xmi_hash = hex16(core::fnv1a(xmi));

        tx.write(info.file, xmi);
        index_json << "    {\"file\": \"" << diag::json_escape(info.file)
                   << "\", \"threads\": " << info.threads
                   << ", \"channels\": " << info.channels << ", \"cyclic\": "
                   << (info.cyclic ? "true" : "false") << ", \"xmi_hash\": \""
                   << info.xmi_hash << "\"}"
                   << (i + 1 < options.models ? "," : "") << "\n";
        result.models.push_back(std::move(info));
    }
    index_json << "  ]\n}\n";
    tx.write("corpus-index.json", index_json.str());
    result.files_written = tx.commit();
    obs::counter("campaign.corpus_models").add(result.models.size());
    return result;
}

}  // namespace uhcg::campaign
