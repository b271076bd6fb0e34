#include "flow/pass.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "flow/fault.hpp"
#include "obs/obs.hpp"

namespace uhcg::flow {

std::vector<std::string> ArtifactStore::names() const {
    std::vector<std::string> out;
    out.reserve(order_.size());
    for (const std::type_index& type : order_) out.push_back(entries_.at(type).name);
    return out;
}

double FlowTrace::total_wall_ms() const {
    double total = 0.0;
    for (const PassTraceEntry& e : entries_) total += e.wall_ms;
    return total;
}

std::size_t FlowTrace::total_errors() const {
    std::size_t total = 0;
    for (const PassTraceEntry& e : entries_) total += e.errors;
    return total;
}

std::size_t FlowTrace::total_warnings() const {
    std::size_t total = 0;
    for (const PassTraceEntry& e : entries_) total += e.warnings;
    return total;
}

namespace {

void append_string_array(std::ostringstream& out,
                         const std::vector<std::string>& values) {
    out << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i) out << ',';
        out << '"' << diag::json_escape(values[i]) << '"';
    }
    out << ']';
}

}  // namespace

std::string FlowTrace::to_json() const {
    std::ostringstream out;
    out << "{\n  \"schema\": \"uhcg-flow-trace-v1\",\n";
    out << "  \"model\": \"" << diag::json_escape(model_) << "\",\n";
    out << "  \"passes\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const PassTraceEntry& e = entries_[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"name\": \"" << diag::json_escape(e.pass) << "\", \"group\": \""
            << diag::json_escape(e.group) << "\", \"wall_ms\": " << e.wall_ms
            << ", \"attempts\": " << e.attempts
            << ", \"budget_ms\": " << e.budget_ms
            << ", \"diagnostics\": {\"errors\": " << e.errors
            << ", \"warnings\": " << e.warnings << ", \"notes\": " << e.notes
            << "}, \"counters\": {";
        std::size_t c = 0;
        for (const auto& [counter, value] : e.counters) {
            if (c++) out << ", ";
            out << '"' << diag::json_escape(counter) << "\": " << value;
        }
        out << "}, \"reads\": ";
        append_string_array(out, e.reads);
        out << ", \"writes\": ";
        append_string_array(out, e.writes);
        out << '}';
    }
    out << (entries_.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"partitions\": [";
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
        const TracePartition& p = partitions_[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"name\": \"" << diag::json_escape(p.name) << "\", \"kind\": \""
            << diag::json_escape(p.kind) << "\", \"strategy\": \""
            << diag::json_escape(p.strategy) << "\", \"units\": ";
        append_string_array(out, p.units);
        out << '}';
    }
    out << (partitions_.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"outputs\": [";
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
        const TraceOutput& o = outputs_[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"path\": \"" << diag::json_escape(o.path)
            << "\", \"strategy\": \"" << diag::json_escape(o.strategy)
            << "\", \"bytes\": " << o.bytes << '}';
    }
    out << (outputs_.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"totals\": {\"wall_ms\": " << total_wall_ms()
        << ", \"passes\": " << entries_.size()
        << ", \"errors\": " << total_errors()
        << ", \"warnings\": " << total_warnings() << "}\n}";
    return out.str();
}

Pass& PassManager::add(Pass pass) {
    if (pass.name.empty() || !pass.run)
        throw FlowError("passes need a name and a body");
    passes_.push_back(std::move(pass));
    return passes_.back();
}

std::vector<const Pass*> PassManager::schedule() const {
    const std::size_t n = passes_.size();

    // Producer of each artifact type; two producers for one slot would make
    // the dataflow ambiguous.
    std::unordered_map<std::type_index, std::size_t> producer;
    for (std::size_t i = 0; i < n; ++i)
        for (const ArtifactKey& out : passes_[i].outputs) {
            auto [it, inserted] = producer.emplace(out.type, i);
            if (!inserted && it->second != i)
                throw FlowError("pass manager '" + name_ + "': artifact '" +
                                out.name + "' has two producers ('" +
                                passes_[it->second].name + "' and '" +
                                passes_[i].name + "')");
        }
    std::unordered_map<std::string, std::size_t> by_name;
    for (std::size_t i = 0; i < n; ++i) by_name.emplace(passes_[i].name, i);

    // Dependency edges: artifact producers plus explicit `after` barriers.
    std::vector<std::vector<std::size_t>> dependents(n);
    std::vector<std::size_t> indegree(n, 0);
    auto add_edge = [&](std::size_t from, std::size_t to) {
        if (from == to) return;
        dependents[from].push_back(to);
        ++indegree[to];
    };
    for (std::size_t i = 0; i < n; ++i) {
        for (const ArtifactKey& in : passes_[i].inputs) {
            auto it = producer.find(in.type);
            if (it != producer.end()) add_edge(it->second, i);
            // No producer: the artifact must be seeded in the store; run()
            // verifies that when the pass executes.
        }
        for (const std::string& barrier : passes_[i].after) {
            auto it = by_name.find(barrier);
            if (it != by_name.end()) add_edge(it->second, i);
        }
    }

    // Kahn's algorithm; the ready set is drained lowest-registration-index
    // first, which makes the order total and deterministic.
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < n; ++i)
        if (indegree[i] == 0) ready.push_back(i);
    std::vector<const Pass*> order;
    order.reserve(n);
    while (!ready.empty()) {
        auto lowest = std::min_element(ready.begin(), ready.end());
        std::size_t next = *lowest;
        ready.erase(lowest);
        order.push_back(&passes_[next]);
        for (std::size_t dep : dependents[next])
            if (--indegree[dep] == 0) ready.push_back(dep);
    }
    if (order.size() != n) {
        std::string cyclic;
        for (std::size_t i = 0; i < n; ++i)
            if (indegree[i] > 0) cyclic += (cyclic.empty() ? "" : ", ") + passes_[i].name;
        throw FlowError("pass manager '" + name_ +
                        "': cyclic pass dependencies through: " + cyclic);
    }
    return order;
}

std::uint64_t RetryPolicy::delay_for_retry(std::size_t retry_index) const {
    if (backoff_ms == 0) return 0;
    double delay = static_cast<double>(backoff_ms);
    for (std::size_t i = 0; i < retry_index; ++i) delay *= backoff_factor;
    double cap = static_cast<double>(backoff_cap_ms);
    return static_cast<std::uint64_t>(std::min(delay, cap));
}

PassManager::RunResult PassManager::run(ArtifactStore& store,
                                        diag::DiagnosticEngine& engine,
                                        FlowTrace* trace,
                                        const std::string& group) {
    RunResult result;
    const std::string group_prefix = group + "/";
    for (const Pass* pass : schedule()) {
        // Every declared input must exist by now — either produced by an
        // earlier pass or seeded by the caller. A missing input is a
        // permanent condition: no retry.
        bool inputs_ok = true;
        for (const ArtifactKey& in : pass->inputs) {
            if (store.has(in)) continue;
            engine.error(diag::codes::kFlowMissingArtifact,
                         "pass '" + pass->name + "' requires artifact '" +
                             in.name + "' which no pass produced and the "
                             "caller did not seed");
            inputs_ok = false;
        }

        const std::size_t errors_before = engine.error_count();
        const std::size_t warnings_before = engine.warning_count();
        const std::size_t diags_before = engine.size();

        bool failed = !inputs_ok;
        double wall_ms = 0.0;
        std::size_t attempts = inputs_ok ? 0 : 1;
        std::map<std::string, std::uint64_t> counters;

        while (inputs_ok) {
            PassContext ctx(store, engine);
            ++attempts;
            const std::size_t attempt_errors = engine.error_count();
            const std::size_t attempt_diags = engine.size();

            if (attempts > 1) obs::counter("flow.retries").add(1);
            auto start = std::chrono::steady_clock::now();
            {
                // Pass names carry their layer as a dotted prefix
                // ("core.mapping" → category "core"), so this one span
                // covers every layer the pass managers orchestrate. Scoped
                // to the attempt only — backoff sleeps stay outside.
                obs::ObsSpan attempt_span(pass->name);
                try {
                    fault::Injector::instance().fire(group_prefix + pass->name,
                                                     ctx);
                    if (!ctx.failed()) pass->run(ctx);
                } catch (const std::exception& e) {
                    engine.report(diag::Severity::Fatal, internal_code_,
                                  e.what());
                    ctx.fail();
                }
            }
            auto stop = std::chrono::steady_clock::now();
            double attempt_ms =
                std::chrono::duration<double, std::milli>(stop - start).count();
            wall_ms += attempt_ms;

            // Wall budget: a pass that overran becomes a transient-
            // classified failure — slowness may pass on retry, and a
            // persistently slow pass quarantines like any other failure.
            if (budget_.wall_ms != 0 &&
                attempt_ms > static_cast<double>(budget_.wall_ms)) {
                // The attempt number keeps repeated overruns distinct so
                // the engine's dedupe cannot swallow a retry's evidence.
                engine.error(
                    diag::codes::kFlowPassTimeout,
                    "pass '" + pass->name + "' attempt " +
                        std::to_string(attempts) +
                        " exceeded its wall budget (" +
                        std::to_string(static_cast<std::uint64_t>(attempt_ms)) +
                        " ms > " + std::to_string(budget_.wall_ms) + " ms)");
                ctx.fail();
            }

            counters = ctx.counters();
            failed = ctx.failed();
            if (!failed) break;

            // Retry only when this attempt's errors are all transient.
            const std::size_t new_errors = engine.error_count() - attempt_errors;
            bool retryable = new_errors > 0 && attempts <= retry_.max_retries;
            if (retryable)
                for (std::size_t i = attempt_diags; i < engine.size(); ++i) {
                    const diag::Diagnostic& d = engine.diagnostics()[i];
                    if (d.severity >= diag::Severity::Error &&
                        !diag::is_transient(d.code))
                        retryable = false;
                }
            if (!retryable) break;

            std::uint64_t delay = retry_.delay_for_retry(attempts - 1);
            engine.note(diag::codes::kFlowRetry,
                        "pass '" + pass->name + "' failed on a transient "
                        "diagnostic; retry " + std::to_string(attempts) +
                        " of " + std::to_string(retry_.max_retries) +
                        " after " + std::to_string(delay) + " ms");
            if (delay)
                std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
        ++result.passes_run;

        if (trace) {
            PassTraceEntry entry;
            entry.pass = pass->name;
            entry.group = group;
            entry.wall_ms = wall_ms;
            entry.attempts = attempts;
            entry.budget_ms = budget_.wall_ms;
            entry.errors = engine.error_count() - errors_before;
            entry.warnings = engine.warning_count() - warnings_before;
            std::size_t new_diags = engine.size() - diags_before;
            entry.notes = new_diags - entry.errors - entry.warnings;
            entry.counters = std::move(counters);
            for (const ArtifactKey& in : pass->inputs) entry.reads.push_back(in.name);
            for (const ArtifactKey& out : pass->outputs)
                entry.writes.push_back(out.name);
            trace->add(std::move(entry));
        }

        if (failed) {
            result.ok = false;
            return result;
        }
    }
    return result;
}

}  // namespace uhcg::flow
