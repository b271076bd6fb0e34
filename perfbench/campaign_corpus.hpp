// campaign_corpus.hpp — the campaign and FSM layers on many small models.
//
// `uhcg campaign` over many small jobs is disk bound: every job commits
// its directory with a directory fsync and removes its staging directory,
// so its wall time follows the latency of the host's disk, not the
// program. It is therefore not an end-to-end workload. Its layers are
// measured here instead, in generate-scale's traced run: the per-model FSM
// emitters and the campaign's expansion and supervision, on the paper's
// four cases, a 6-machine × 96-state FSM model and a seeded 24-model
// synthetic corpus.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "bench.hpp"

namespace perfbench {

class CampaignCorpus {
public:
    /// Writes the models and a manifest (strategies `generate` and
    /// `explore`, default backend) under `options.work_dir`/campaign.
    explicit CampaignCorpus(const Options& options);
    ~CampaignCorpus();

    /// One traced round: adds fsm.emit.ms, fsm.states, campaign.expand.ms,
    /// campaign.jobs, campaign.quarantined and campaign.supervision_ms to
    /// `round`, and checks every job's status and the campaign tree.
    void trace_round(Outcome& out, std::map<std::string, double>& round);

private:
    struct State;
    std::unique_ptr<State> state_;
};

}  // namespace perfbench
