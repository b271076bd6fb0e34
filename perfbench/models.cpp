#include "models.hpp"

#include "bench.hpp"
#include "campaign/corpus.hpp"

namespace perfbench {

uhcg::uml::Model synth_model(std::uint64_t seed, std::size_t slot,
                             std::size_t threads, bool cyclic) {
    uhcg::campaign::CorpusOptions options;
    options.models = slot + 1;
    options.seed = seed;
    options.min_threads = options.max_threads = threads;
    options.feedback_cycles = cyclic ? 1 : 0;
    return uhcg::campaign::synth_model(options, slot);
}

uhcg::uml::Model scale_model(std::uint64_t seed, std::size_t index) {
    // The seed names the model, which changes every output file but not
    // the work.
    uhcg::uml::Model model =
        synth_model(kStructureSeed, index, kScaleThreads[index], false);
    model.set_name("scale_" + std::to_string(seed) + "_" + kScaleLabel[index]);
    return model;
}

}  // namespace perfbench
