#include "transform/engine.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace uhcg::transform {

void Trace::record(const model::Object& source, const std::string& rule,
                   model::Object& target) {
    links_.push_back({&source, rule, &target});
    by_source_rule_[Key(&source, rule)].push_back(links_.size() - 1);
    first_by_source_.emplace(&source, links_.size() - 1);
}

std::vector<model::Object*> Trace::targets(const model::Object& source,
                                           const std::string& rule) const {
    std::vector<model::Object*> out;
    auto it = by_source_rule_.find(Key(&source, rule));
    if (it == by_source_rule_.end()) return out;
    for (std::size_t i : it->second) out.push_back(links_[i].target);
    return out;
}

model::Object* Trace::resolve(const model::Object& source) const {
    auto it = first_by_source_.find(&source);
    return it == first_by_source_.end() ? nullptr : links_[it->second].target;
}

model::Object* Trace::resolve(const model::Object& source,
                              const std::string& rule) const {
    auto it = by_source_rule_.find(Key(&source, rule));
    if (it == by_source_rule_.end() || it->second.empty()) return nullptr;
    return links_[it->second.front()].target;
}

model::Object& Context::create(const model::Object& source, const std::string& rule,
                               std::string_view target_class, std::string id) {
    model::Object& obj = target_->create(target_class, std::move(id));
    trace_->record(source, rule, obj);
    return obj;
}

model::Object& Context::call_lazy(const std::string& rule,
                                  const model::Object& source) {
    // Memoized: at most one target per (source, lazy rule).
    if (model::Object* existing = trace_->resolve(source, rule)) return *existing;
    for (const LazyRule& lazy : engine_->lazy_rules_) {
        if (lazy.name != rule) continue;
        model::Object& target = create(source, rule, lazy.target_class);
        lazy.body(*this, source, target);
        return target;
    }
    throw std::invalid_argument("no lazy rule named '" + rule + "'");
}

Engine& Engine::add_rule(Rule rule) {
    if (rule.name.empty() || !rule.body)
        throw std::invalid_argument("rules need a name and a body");
    rules_.push_back(std::move(rule));
    return *this;
}

Engine& Engine::add_lazy_rule(LazyRule rule) {
    if (rule.name.empty() || !rule.body)
        throw std::invalid_argument("lazy rules need a name and a body");
    lazy_rules_.push_back(std::move(rule));
    return *this;
}

model::ObjectModel Engine::run(const model::ObjectModel& source, Trace* trace_out,
                               RunStats* stats_out) {
    model::ObjectModel target(*target_mm_);
    Trace local_trace;
    Trace& trace = trace_out ? *trace_out : local_trace;
    Context ctx(*this, source, target, trace);

    RunStats stats;
    stats.source_objects = source.size();
    for (const Rule& rule : rules_) {
        for (const model::Object* obj : source.all_of(rule.source_class)) {
            if (rule.guard && !rule.guard(*obj)) continue;
            rule.body(ctx, *obj);
            ++stats.applications[rule.name];
        }
    }
    stats.target_objects = target.size();
    stats.trace_links = trace.link_count();
    obs::counter("transform.objects")
        .add(stats.source_objects + stats.target_objects);
    if (stats_out) *stats_out = stats;
    return target;
}

}  // namespace uhcg::transform
