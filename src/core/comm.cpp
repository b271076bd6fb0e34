#include "core/comm.hpp"

#include <algorithm>
#include <functional>
#include <tuple>
#include <unordered_set>

#include "obs/obs.hpp"

namespace uhcg::core {
namespace {

/// Index entries visited by CommModel queries (one add per query).
void count_visits(std::size_t n) {
    static obs::Counter& visits = obs::counter("core.comm.visits");
    visits.add(n);
}

/// The channels of one thread's range, in channel order.
std::vector<const Channel*> in_channel_order(const std::vector<Channel>& channels,
                                             std::span<const std::uint32_t> items) {
    count_visits(items.size());
    std::vector<const Channel*> out;
    out.reserve(items.size());
    for (std::uint32_t i : items) out.push_back(&channels[i]);
    std::sort(out.begin(), out.end(), std::less<const Channel*>());
    return out;
}

/// True when one of `items` (a channel range ordered by variable)
/// carries variable `v`; a binary search.
bool carries(const std::vector<Channel>& channels,
             std::span<const std::uint32_t> items, std::string_view v) {
    std::size_t visited = 0;
    auto it = std::partition_point(items.begin(), items.end(), [&](std::uint32_t i) {
        ++visited;
        return channels[i].variable < v;
    });
    const bool found = it != items.end() && channels[*it].variable == v;
    count_visits(visited + (it != items.end()));
    return found;
}

/// One thread's accesses of one direction, in access order.
std::vector<const IoAccess*> accesses(const std::vector<IoAccess>& io,
                                      std::span<const std::uint32_t> items,
                                      bool is_input) {
    count_visits(items.size());
    std::vector<const IoAccess*> out;
    for (std::uint32_t i : items)
        if (io[i].is_input == is_input) out.push_back(&io[i]);
    return out;
}

}  // namespace

template <class KeyOf, class Less>
CommModel::ThreadIndex CommModel::ThreadIndex::build(std::size_t count,
                                                     KeyOf key_of, Less less) {
    const std::less<const uml::ObjectInstance*> before;
    std::vector<const uml::ObjectInstance*> entry_keys(count);
    for (std::size_t i = 0; i < count; ++i) entry_keys[i] = key_of(i);
    // The index lives as long as its CommModel (serve keeps one per
    // resident model), so every array is allocated at its final size.
    std::vector<const uml::ObjectInstance*> sorted = entry_keys;
    std::sort(sorted.begin(), sorted.end(), before);
    ThreadIndex index;
    index.keys.assign(sorted.begin(), std::unique(sorted.begin(), sorted.end()));
    // Counting sort by thread, then each thread's few entries by `less`.
    std::vector<std::uint32_t> slot(count);
    index.offsets.assign(index.keys.size() + 1, 0);
    for (std::size_t i = 0; i < count; ++i) {
        slot[i] = static_cast<std::uint32_t>(
            std::lower_bound(index.keys.begin(), index.keys.end(), entry_keys[i],
                             before) -
            index.keys.begin());
        ++index.offsets[slot[i] + 1];
    }
    for (std::size_t k = 0; k < index.keys.size(); ++k)
        index.offsets[k + 1] += index.offsets[k];
    index.items.resize(count);
    std::vector<std::uint32_t> next(index.offsets.begin(), index.offsets.end() - 1);
    for (std::size_t i = 0; i < count; ++i)
        index.items[next[slot[i]]++] = static_cast<std::uint32_t>(i);
    for (std::size_t k = 0; k < index.keys.size(); ++k)
        std::sort(index.items.begin() + index.offsets[k],
                  index.items.begin() + index.offsets[k + 1], less);
    return index;
}

std::span<const std::uint32_t> CommModel::ThreadIndex::of(
    const uml::ObjectInstance& thread) const {
    auto it = std::lower_bound(keys.begin(), keys.end(), &thread,
                               std::less<const uml::ObjectInstance*>());
    if (it == keys.end() || *it != &thread) return {};
    const auto k = static_cast<std::size_t>(it - keys.begin());
    return std::span(items).subspan(offsets[k], offsets[k + 1] - offsets[k]);
}

void CommModel::build_index() {
    auto by_variable = [&](std::uint32_t a, std::uint32_t b) {
        const int order = channels_[a].variable.compare(channels_[b].variable);
        return order != 0 ? order < 0 : a < b;
    };
    by_consumer_ = ThreadIndex::build(
        channels_.size(), [&](std::size_t i) { return channels_[i].consumer; },
        by_variable);
    by_producer_ = ThreadIndex::build(
        channels_.size(), [&](std::size_t i) { return channels_[i].producer; },
        by_variable);
    io_by_thread_ = ThreadIndex::build(
        io_.size(), [&](std::size_t i) { return io_[i].thread; }, std::less<>());
    using Link = std::tuple<std::string_view, std::string_view, std::string_view>;
    struct LinkHash {
        std::size_t operator()(const Link& l) const {
            const std::hash<std::string_view> h;
            std::size_t seed = h(std::get<0>(l));
            for (std::size_t v : {h(std::get<1>(l)), h(std::get<2>(l))})
                seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
            return seed;
        }
    };
    std::unordered_set<Link, LinkHash> seen;
    seen.reserve(channels_.size());
    opens_link_.reserve(channels_.size());
    for (const Channel& c : channels_)
        opens_link_.push_back(
            seen.emplace(c.producer->name(), c.consumer->name(), c.variable).second);
}

std::vector<const Channel*> CommModel::links() const {
    count_visits(channels_.size());
    std::vector<const Channel*> out;
    for (std::size_t i = 0; i < channels_.size(); ++i)
        if (opens_link_[i]) out.push_back(&channels_[i]);
    return out;
}

std::vector<const Channel*> CommModel::incoming(
    const uml::ObjectInstance& thread) const {
    return in_channel_order(channels_, by_consumer_.of(thread));
}

std::vector<const Channel*> CommModel::outgoing(
    const uml::ObjectInstance& thread) const {
    return in_channel_order(channels_, by_producer_.of(thread));
}

bool CommModel::receives(const uml::ObjectInstance& thread,
                         std::string_view v) const {
    return carries(channels_, by_consumer_.of(thread), v);
}

bool CommModel::must_produce(const uml::ObjectInstance& thread,
                             std::string_view v) const {
    return carries(channels_, by_producer_.of(thread), v);
}

std::vector<const IoAccess*> CommModel::io_inputs(
    const uml::ObjectInstance& thread) const {
    return accesses(io_, io_by_thread_.of(thread), true);
}

std::vector<const IoAccess*> CommModel::io_outputs(
    const uml::ObjectInstance& thread) const {
    return accesses(io_, io_by_thread_.of(thread), false);
}

double CommModel::traffic(const uml::ObjectInstance& from,
                          const uml::ObjectInstance& to) const {
    double sum = 0.0;  // summed in channel order
    for (const Channel* c : outgoing(from))
        if (c->consumer == &to) sum += c->data_size;
    return sum;
}

CommModel analyze_communication(const uml::Model& model) {
    obs::ObsSpan span("core.comm-analyze", "core");
    CommModel out;
    for (const uml::SequenceDiagram* d : model.sequence_diagrams()) {
        for (const uml::Message* m : d->messages()) {
            const uml::ObjectInstance* sender = m->from()->represents();
            const uml::ObjectInstance* receiver = m->to()->represents();
            const std::string& op = m->operation_name();

            if (sender->is_thread() && receiver->is_thread() && sender != receiver) {
                if (op.rfind("Set", 0) == 0 && !m->arguments().empty()) {
                    for (const uml::MessageArgument& a : m->arguments())
                        out.add_channel(
                            {sender, receiver, a.name, m->data_size()});
                } else if (op.rfind("Get", 0) == 0 && !m->result_name().empty()) {
                    // Caller receives: data flows receiver → sender.
                    out.add_channel(
                        {receiver, sender, m->result_name(), m->data_size()});
                }
            } else if (receiver->is_io_device() && sender->is_thread()) {
                if (op.rfind("get", 0) == 0 && !m->result_name().empty()) {
                    out.add_io({sender, receiver, m->result_name(), true});
                } else if (op.rfind("set", 0) == 0 && !m->arguments().empty()) {
                    for (const uml::MessageArgument& a : m->arguments())
                        out.add_io({sender, receiver, a.name, false});
                }
            }
        }
    }
    out.build_index();
    return out;
}

}  // namespace uhcg::core
