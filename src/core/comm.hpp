// comm.hpp — communication analysis over UML sequence diagrams.
//
// The §4.1 conventions make inter-thread and environment communication
// syntactically recognizable:
//  * `Set*` message thread A → thread B carrying argument v:
//        A sends v to B            ⇒ data channel A --v--> B;
//  * `Get*` message thread A → thread B binding result v:
//        A receives v from B       ⇒ data channel B --v--> A;
//  * `get*` on an <<IO>> object binding result v: environment input to the
//    invoking thread;
//  * `set*` on an <<IO>> object carrying argument v: environment output.
//
// The analysis produces the channel/IO tables every later stage consumes:
// channel inference (§4.2.1), the task graph for thread allocation
// (§4.2.3), and the Thread-SS port synthesis of the mapping itself.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "uml/model.hpp"

namespace uhcg::core {

/// One inter-thread data channel (producer's variable v flows to consumer).
struct Channel {
    const uml::ObjectInstance* producer = nullptr;
    const uml::ObjectInstance* consumer = nullptr;
    std::string variable;
    double data_size = 1.0;
};

/// One environment access by a thread through an <<IO>> device.
struct IoAccess {
    const uml::ObjectInstance* thread = nullptr;
    const uml::ObjectInstance* device = nullptr;
    std::string variable;
    bool is_input = false;  ///< true for get* (environment → thread)
};

/// Result of the analysis. Immutable once `analyze_communication` returns:
/// it then carries a per-thread index of its channels and accesses, so
/// every per-thread query costs the thread's own entries (plus a binary
/// search for the thread), never a scan of the whole model. Serve shares
/// one resident instance across workers; all queries are const. Each
/// query adds the index entries it visits to the `core.comm.visits`
/// counter.
class CommModel {
public:
    const std::vector<Channel>& channels() const { return channels_; }
    const std::vector<IoAccess>& io_accesses() const { return io_; }

    /// The data links: one channel per (producer name, consumer name,
    /// variable), in first-appearance order. Set on one side and Get on
    /// the other both describe one link; every channel-instantiating
    /// mapping (CAAM §4.2.1 and KPN) iterates this.
    std::vector<const Channel*> links() const;

    /// Channels consumed / produced by one thread, in channel order.
    std::vector<const Channel*> incoming(const uml::ObjectInstance& thread) const;
    std::vector<const Channel*> outgoing(const uml::ObjectInstance& thread) const;
    /// True when `thread` receives variable `v` over some channel.
    bool receives(const uml::ObjectInstance& thread, std::string_view v) const;
    /// True when some channel requires `thread` to produce `v`.
    bool must_produce(const uml::ObjectInstance& thread, std::string_view v) const;
    /// IO inputs (get*) of one thread.
    std::vector<const IoAccess*> io_inputs(const uml::ObjectInstance& thread) const;
    std::vector<const IoAccess*> io_outputs(const uml::ObjectInstance& thread) const;

    /// Sum of data sizes between an ordered thread pair.
    double traffic(const uml::ObjectInstance& from,
                   const uml::ObjectInstance& to) const;

private:
    friend CommModel analyze_communication(const uml::Model& model);

    /// Entries grouped by thread: `keys` sorted by address, thread
    /// `keys[k]` owns `items[offsets[k] .. offsets[k+1])` (indices into
    /// channels_ or io_). Channel ranges are ordered by (variable, index),
    /// so receives/must_produce binary-search them; IO ranges by index.
    struct ThreadIndex {
        std::vector<const uml::ObjectInstance*> keys;
        std::vector<std::uint32_t> offsets;
        std::vector<std::uint32_t> items;

        template <class KeyOf, class Less>
        static ThreadIndex build(std::size_t count, KeyOf key_of, Less less);
        std::span<const std::uint32_t> of(const uml::ObjectInstance& thread) const;
    };

    void add_channel(Channel c) { channels_.push_back(std::move(c)); }
    void add_io(IoAccess a) { io_.push_back(std::move(a)); }
    /// Builds the indexes and the link list; called once, last.
    void build_index();

    std::vector<Channel> channels_;
    std::vector<IoAccess> io_;
    /// Per channel: true when it is the first of its link.
    std::vector<bool> opens_link_;
    ThreadIndex by_consumer_, by_producer_, io_by_thread_;
};

/// Runs the analysis. Messages violating the conventions are skipped here;
/// uml::check reports them as errors beforehand.
CommModel analyze_communication(const uml::Model& model);

}  // namespace uhcg::core
