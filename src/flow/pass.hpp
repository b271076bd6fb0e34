// pass.hpp — the unified flow layer: a typed pass manager.
//
// The paper's Fig. 2 flow is a sequence of model transformations; this
// layer gives every step one shape so the heterogeneous branches of Fig. 1
// (Simulink CAAM, FSM code generation, multithreaded fallback, KPN
// retargeting) compose over a single observable substrate:
//
//  * *artifacts* — typed values (the UML model, the communication model,
//    the CAAM, the .mdl text, ...) held in an ArtifactStore keyed by
//    C++ type; an artifact type can carry a stable dotted name via an
//    ArtifactTraits specialization, used in traces and error messages;
//  * *passes* — named units of work declaring which artifact types they
//    read and write; bodies receive a PassContext for artifact access,
//    diagnostics, and per-pass counters;
//  * *scheduling* — deterministic: passes run in topological order of
//    their artifact dependencies, with registration order breaking ties,
//    so the same registered pipeline always executes identically;
//  * *observability* — every executed pass records wall time, its
//    counters, and the number of diagnostics it reported into a FlowTrace
//    that renders as machine-readable JSON (schema `uhcg-flow-trace-v1`).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeindex>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "diag/diag.hpp"

namespace uhcg::flow {

/// Structural misuse of the flow layer (missing artifact, duplicate
/// producer, cyclic pass graph). Input-model problems are *diagnostics*,
/// never FlowErrors.
class FlowError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Specialize to give an artifact type a stable dotted name:
///   template <> struct ArtifactTraits<core::CommModel> {
///       static constexpr const char* name = "core.comm"; };
template <typename T>
struct ArtifactTraits {
    static constexpr const char* name = nullptr;  // fallback: typeid name
};

/// Identity of an artifact slot: the C++ type plus its display name.
struct ArtifactKey {
    std::type_index type;
    std::string name;

    bool operator==(const ArtifactKey& other) const { return type == other.type; }
};

template <typename T>
ArtifactKey artifact_key() {
    const char* n = ArtifactTraits<T>::name;
    return {std::type_index(typeid(T)), n ? n : typeid(T).name()};
}

/// Type-keyed artifact container. At most one artifact per type; re-putting
/// replaces the previous value. Values are owned by the store, except
/// lent ones, which stay the lender's and are read-only here.
class ArtifactStore {
public:
    template <typename T>
    T& put(T value) {
        auto holder = std::make_shared<T>(std::move(value));
        T* raw = holder.get();
        insert<T>(Entry{std::move(holder), {}, false});
        return *raw;
    }

    /// Makes `value` the artifact of type T without copying it. The caller
    /// keeps it alive for the store's lifetime; get() and require() on a
    /// non-const store throw FlowError for it, so no pass mutates it.
    template <typename T>
    const T& lend(const T& value) {
        insert<T>(Entry{std::shared_ptr<void>(const_cast<T*>(&value), [](void*) {}),
                        {}, true});
        return value;
    }

    template <typename T>
    T* get() {
        auto it = entries_.find(std::type_index(typeid(T)));
        if (it == entries_.end()) return nullptr;
        if (it->second.lent)
            throw FlowError("artifact '" + it->second.name + "' is lent read-only");
        return static_cast<T*>(it->second.value.get());
    }
    template <typename T>
    const T* get() const {
        auto it = entries_.find(std::type_index(typeid(T)));
        return it == entries_.end() ? nullptr
                                    : static_cast<const T*>(it->second.value.get());
    }

    /// Like get(), but a missing artifact is a structural error.
    template <typename T>
    T& require() {
        if (T* value = get<T>()) return *value;
        throw FlowError("missing artifact '" + artifact_key<T>().name + "'");
    }
    template <typename T>
    const T& require() const {
        if (const T* value = get<T>()) return *value;
        throw FlowError("missing artifact '" + artifact_key<T>().name + "'");
    }

    template <typename T>
    bool has() const {
        return entries_.count(std::type_index(typeid(T))) > 0;
    }
    bool has(const ArtifactKey& key) const { return entries_.count(key.type) > 0; }

    std::size_t size() const { return entries_.size(); }
    /// Artifact display names, first-put order.
    std::vector<std::string> names() const;

private:
    struct Entry {
        std::shared_ptr<void> value;
        std::string name;
        bool lent = false;
    };

    template <typename T>
    void insert(Entry entry) {
        ArtifactKey key = artifact_key<T>();
        entry.name = std::move(key.name);
        auto it = entries_.find(key.type);
        if (it == entries_.end()) {
            entries_.emplace(key.type, std::move(entry));
            order_.push_back(key.type);
        } else {
            it->second = std::move(entry);
        }
    }

    std::unordered_map<std::type_index, Entry> entries_;
    std::vector<std::type_index> order_;
};

/// Handed to pass bodies: artifact access, diagnostics, counters, and the
/// failure latch that stops the pipeline after the current pass.
class PassContext {
public:
    PassContext(ArtifactStore& store, diag::DiagnosticEngine& diags)
        : store_(&store), diags_(&diags) {}

    ArtifactStore& store() { return *store_; }
    diag::DiagnosticEngine& diags() { return *diags_; }

    template <typename T>
    const T& in() const {
        return static_cast<const ArtifactStore&>(*store_).require<T>();
    }
    template <typename T>
    T& inout() {
        return store_->require<T>();
    }
    template <typename T>
    T& out(T value) {
        return store_->put(std::move(value));
    }
    /// Publishes a value the caller owns, read-only (ArtifactStore::lend).
    template <typename T>
    const T& lend(const T& value) {
        return store_->lend(value);
    }

    /// Per-pass metric, surfaced in the trace (e.g. "channels", "rules").
    void count(const std::string& counter, std::uint64_t delta = 1) {
        counters_[counter] += delta;
    }
    const std::map<std::string, std::uint64_t>& counters() const {
        return counters_;
    }

    /// Marks the run failed; the manager stops scheduling after this pass.
    void fail() { failed_ = true; }
    bool failed() const { return failed_; }

private:
    ArtifactStore* store_;
    diag::DiagnosticEngine* diags_;
    std::map<std::string, std::uint64_t> counters_;
    bool failed_ = false;
};

/// A named unit of work with declared artifact dependencies.
struct Pass {
    std::string name;
    std::vector<ArtifactKey> inputs;
    std::vector<ArtifactKey> outputs;
    /// Explicit ordering edges for passes whose dependency is an in-place
    /// mutation rather than a produced artifact (a barrier, in pass-manager
    /// terms). Names not present in the manager are ignored.
    std::vector<std::string> after;
    std::function<void(PassContext&)> run;

    Pass(std::string pass_name, std::function<void(PassContext&)> body)
        : name(std::move(pass_name)), run(std::move(body)) {}

    template <typename T>
    Pass& reads() {
        inputs.push_back(artifact_key<T>());
        return *this;
    }
    template <typename T>
    Pass& writes() {
        outputs.push_back(artifact_key<T>());
        return *this;
    }
    Pass& runs_after(std::string pass_name) {
        after.push_back(std::move(pass_name));
        return *this;
    }
};

/// Deterministic capped-backoff retry policy. A failed pass re-runs only
/// when every error it reported in the failing attempt is classified
/// transient (diag::is_transient) — watchdog trips, budget overruns,
/// injected transient faults. Input defects never retry: the same pass
/// over the same artifacts reproduces them.
struct RetryPolicy {
    /// Additional attempts after the first (0 = never retry).
    std::size_t max_retries = 0;
    /// Delay before the first retry; 0 keeps retries immediate (tests).
    std::uint64_t backoff_ms = 0;
    /// Multiplier applied per further retry (deterministic, no jitter).
    double backoff_factor = 2.0;
    /// Upper bound on any single delay.
    std::uint64_t backoff_cap_ms = 2000;

    /// Delay before retry number `retry_index` (0-based), in ms.
    std::uint64_t delay_for_retry(std::size_t retry_index) const;
};

/// Per-pass resource budget. Wall time is checked when the pass body
/// returns (bodies that can stall internally — sim/kpn execution — bound
/// themselves via their WatchdogBudgets); an overrun becomes a
/// transient-classified flow.pass-timeout error and fails the pass, so
/// the RetryPolicy may re-run it and quarantine applies otherwise.
struct PassBudget {
    std::uint64_t wall_ms = 0;  ///< 0 = unlimited
};

/// One executed pass in the trace.
struct PassTraceEntry {
    std::string pass;
    std::string group;  ///< strategy / partition the pass ran under
    double wall_ms = 0.0;      ///< summed over all attempts
    std::size_t attempts = 1;  ///< 1 + retries actually taken
    std::size_t errors = 0;    ///< diagnostics with severity >= Error
    std::size_t warnings = 0;  ///< warnings reported during the pass
    std::size_t notes = 0;
    std::uint64_t budget_ms = 0;  ///< wall budget in force (0 = unlimited)
    std::map<std::string, std::uint64_t> counters;
    std::vector<std::string> reads;
    std::vector<std::string> writes;
};

/// A generated output recorded for the trace (file name + producer).
struct TraceOutput {
    std::string path;
    std::string strategy;
    std::size_t bytes = 0;
};

/// One subsystem partition recorded for the trace.
struct TracePartition {
    std::string name;
    std::string kind;      ///< "dataflow" | "control-flow"
    std::string strategy;  ///< dispatched generator, "" when none
    std::vector<std::string> units;
};

/// Trace sink shared by every pass manager of one flow run; renders the
/// machine-readable JSON document (schema `uhcg-flow-trace-v1`).
class FlowTrace {
public:
    void set_model(std::string name) { model_ = std::move(name); }
    const std::string& model() const { return model_; }

    void add(PassTraceEntry entry) { entries_.push_back(std::move(entry)); }
    void add_partition(TracePartition p) { partitions_.push_back(std::move(p)); }
    void add_output(TraceOutput o) { outputs_.push_back(std::move(o)); }

    const std::vector<PassTraceEntry>& entries() const { return entries_; }
    const std::vector<TracePartition>& partitions() const { return partitions_; }
    const std::vector<TraceOutput>& outputs() const { return outputs_; }

    double total_wall_ms() const;
    std::size_t total_errors() const;
    std::size_t total_warnings() const;

    /// Schema `uhcg-flow-trace-v1`:
    /// { "schema": "uhcg-flow-trace-v1", "model": "...",
    ///   "passes": [{"name","group","wall_ms","diagnostics":{...},
    ///               "counters":{...},"reads":[...],"writes":[...]}],
    ///   "partitions": [{"name","kind","strategy","units":[...]}],
    ///   "outputs": [{"path","strategy","bytes"}],
    ///   "totals": {"wall_ms","passes","errors","warnings"} }
    std::string to_json() const;

private:
    std::string model_;
    std::vector<PassTraceEntry> entries_;
    std::vector<TracePartition> partitions_;
    std::vector<TraceOutput> outputs_;
};

/// Registers passes and runs them in deterministic topological order.
class PassManager {
public:
    explicit PassManager(std::string name = "flow") : name_(std::move(name)) {}

    Pass& add(Pass pass);
    const std::string& name() const { return name_; }
    std::size_t pass_count() const { return passes_.size(); }

    /// Exceptions escaping a pass body become a Fatal diagnostic carrying
    /// `internal_error_code` and fail the run.
    void set_internal_error_code(std::string code) {
        internal_code_ = std::move(code);
    }

    /// Retry/budget enforcement (resilience layer). Both default off.
    void set_retry_policy(RetryPolicy policy) { retry_ = policy; }
    const RetryPolicy& retry_policy() const { return retry_; }
    void set_pass_budget(PassBudget budget) { budget_ = budget; }
    const PassBudget& pass_budget() const { return budget_; }

    /// The deterministic execution order. Throws FlowError on duplicate
    /// producers or cyclic declarations. Inputs with no registered
    /// producer must be seeded in the store before run().
    std::vector<const Pass*> schedule() const;

    struct RunResult {
        bool ok = true;
        std::size_t passes_run = 0;
    };

    /// Runs the scheduled passes against `store`, reporting through
    /// `engine` and appending one PassTraceEntry per executed pass to
    /// `trace` (labelled `group`) when given. Stops after a pass that
    /// called PassContext::fail() or raised an exception.
    RunResult run(ArtifactStore& store, diag::DiagnosticEngine& engine,
                  FlowTrace* trace = nullptr, const std::string& group = {});

private:
    std::string name_;
    std::vector<Pass> passes_;
    std::string internal_code_ = "flow.internal";
    RetryPolicy retry_;
    PassBudget budget_;
};

}  // namespace uhcg::flow
