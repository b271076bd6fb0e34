// from_uml.hpp — UML → KPN mapping, the §3 retargeting of the Fig. 2 flow.
//
// The same front-end analyses drive it: <<SASchedRes>> objects become KPN
// processes (their internal block layer abstracts into the process
// kernel), the inferred inter-thread data channels become KPN channels,
// and <<IO>> accesses become network-boundary ports. When the thread graph
// is cyclic the mapping seeds one initial token per broken cycle — the KPN
// equivalent of §4.2.2's UnitDelay temporal barriers (without it, a cyclic
// network suffers a read-blocked startup deadlock, which kpn::Executor
// detects and reports).
//
// Unlike the CAAM branch, which keeps the §4.1 rule-based model-to-model
// transformation, the network is built straight from the communication
// analysis: every process, port and channel is already a CommModel
// entry, so an intermediate object model would only copy them.
#pragma once

#include "core/comm.hpp"
#include "kpn/model.hpp"
#include "uml/model.hpp"

namespace uhcg::kpn {

struct KpnMappingOptions {
    /// Seed initial tokens to break cyclic thread graphs (§4.2.2 analogue).
    bool auto_initial_tokens = true;
};

struct KpnMappingOutput {
    Network network;
    std::size_t initial_tokens_inserted = 0;
    std::vector<std::string> warnings;
};

/// Maps `model` (must pass uml::check) to a KPN. The communication
/// analysis is recomputed internally; use the overload to share one. The
/// overload walks each link, link-list entry, <<IO>> access and DFS edge
/// once and adds that count to the `kpn.map.visits` counter.
KpnMappingOutput map_to_kpn(const uml::Model& model,
                            const KpnMappingOptions& options = {});
KpnMappingOutput map_to_kpn(const uml::Model& model, const core::CommModel& comm,
                            const KpnMappingOptions& options = {});

}  // namespace uhcg::kpn
