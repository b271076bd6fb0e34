// diag.hpp — structured diagnostics for the whole flow.
//
// Every stage of the pipeline (XML lexing, XMI reading, well-formedness,
// metamodel conformance, mapping, execution watchdogs) reports problems as
// Diagnostic records through a DiagnosticEngine instead of throwing on the
// first offence. The engine collects, deduplicates and sorts them, and
// renders either a human caret-style listing (using the line/column the XML
// parser tracks) or a machine-readable JSON array — the BridgePoint-style
// "report everything in one pass" behaviour a production front-end needs.
//
// Conventions:
//  * codes are stable dotted identifiers ("xmi.missing-attribute"); the
//    full registry lives in diag::codes below and in DESIGN.md;
//  * severity Error and Fatal abort the stage that reported them (after the
//    stage finishes collecting); Warning and Note never do;
//  * a SourceLocation with line 0 means "no position known" and renders
//    without the caret block.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace uhcg::diag {

enum class Severity { Note, Warning, Error, Fatal };

std::string_view to_string(Severity s);

/// Position of the offence in an input artifact. `line`/`column` are
/// 1-based; line 0 means the location is unknown.
struct SourceLocation {
    std::string file;
    std::size_t line = 0;
    std::size_t column = 0;

    bool known() const { return line > 0; }
};

/// One problem found anywhere in the flow.
struct Diagnostic {
    Severity severity = Severity::Error;
    /// Stable machine-readable identifier, e.g. "xmi.dangling-reference".
    std::string code;
    std::string message;
    SourceLocation location;
    /// Extra context lines (blocked processes, channel fills, cycle paths).
    std::vector<std::string> notes;
};

/// Well-known diagnostic codes. Keeping them in one place makes the fault
/// injection corpus assertions and the DESIGN.md registry greppable.
namespace codes {
// XML layer
inline constexpr const char* kXmlParse = "xml.parse";
inline constexpr const char* kXmlUnreadable = "xml.unreadable";
// XMI reader
inline constexpr const char* kXmiNotXmi = "xmi.not-xmi";
inline constexpr const char* kXmiNoModel = "xmi.no-model";
inline constexpr const char* kXmiMissingAttribute = "xmi.missing-attribute";
inline constexpr const char* kXmiDanglingReference = "xmi.dangling-reference";
inline constexpr const char* kXmiBadValue = "xmi.bad-value";
inline constexpr const char* kXmiDuplicateId = "xmi.duplicate-id";
inline constexpr const char* kXmiUnknownStereotype = "xmi.unknown-stereotype";
// UML well-formedness (§4.1 conventions; E/W ids match uml/wellformed.hpp)
inline constexpr const char* kUmlWellformed = "uml.wellformed";
// Metamodel conformance
inline constexpr const char* kModelConformance = "model.conformance";
// Mapping / optimization passes
inline constexpr const char* kMapRule = "map.rule";
inline constexpr const char* kMapChannels = "map.channels";
inline constexpr const char* kMapInternal = "map.internal";
inline constexpr const char* kCaamInvalid = "caam.invalid";
// Design-space exploration
inline constexpr const char* kDseMismatch = "dse.mismatch";
inline constexpr const char* kDseEmpty = "dse.empty";
inline constexpr const char* kDseModel = "dse.model";
// Execution watchdogs
inline constexpr const char* kSimDeadlock = "sim.deadlock";
inline constexpr const char* kSimWatchdog = "sim.watchdog";
inline constexpr const char* kSimStructure = "sim.structure";
inline constexpr const char* kKpnReadBlocked = "kpn.read-blocked";
inline constexpr const char* kKpnWatchdog = "kpn.watchdog";
// Flow layer: pass manager + strategy dispatch
inline constexpr const char* kFlowMissingArtifact = "flow.missing-artifact";
inline constexpr const char* kFlowStrategy = "flow.strategy";
// Flow resilience layer: retry/budget enforcement + quarantine
inline constexpr const char* kFlowPassTimeout = "flow.pass-timeout";
inline constexpr const char* kFlowRetry = "flow.retry";
inline constexpr const char* kFlowTransient = "flow.transient";
inline constexpr const char* kFlowQuarantine = "flow.quarantine";
inline constexpr const char* kFlowCheckpoint = "flow.checkpoint";
// Control-flow branch (UML state machine → FSM → C)
inline constexpr const char* kFsmInvalid = "fsm.invalid";
// Fallback multithreaded C++ branch
inline constexpr const char* kCodegenThreads = "codegen.threads";
// Campaign orchestration (manifest expansion, per-job quarantine, journal)
inline constexpr const char* kCampaignManifest = "campaign.manifest";
inline constexpr const char* kCampaignJob = "campaign.job";
inline constexpr const char* kCampaignJournal = "campaign.journal";
}  // namespace codes

/// True for codes describing *transient* conditions — budget/watchdog
/// trips and injected transient faults — the only failures a RetryPolicy
/// is allowed to retry. Input defects (xmi.*, uml.*, caam.*) and internal
/// errors are permanent: re-running the same pass on the same artifacts
/// reproduces them, so retrying only burns the budget.
bool is_transient(std::string_view code);

/// Collects diagnostics from every stage of one pipeline run.
class DiagnosticEngine {
public:
    /// Records a diagnostic. Exact duplicates (same severity, code,
    /// message and location) are dropped — recovery paths often revisit
    /// the same malformed element.
    void report(Diagnostic d);
    void report(Severity severity, std::string code, std::string message,
                SourceLocation location = {},
                std::vector<std::string> notes = {});

    /// Shorthand used by stages that only distinguish error/warning.
    void error(std::string code, std::string message, SourceLocation location = {});
    void warning(std::string code, std::string message, SourceLocation location = {});
    void note(std::string code, std::string message, SourceLocation location = {});

    /// Appends every diagnostic of `other` in `other`'s report order,
    /// through the normal dedup path, and adopts its registered sources.
    /// The parallel generate dispatcher collects each (strategy ×
    /// subsystem) unit into a private engine and folds them back in
    /// canonical unit order, so the merged stream is identical for any
    /// worker count.
    void merge(const DiagnosticEngine& other);

    bool empty() const { return diags_.empty(); }
    std::size_t size() const { return diags_.size(); }
    std::size_t error_count() const { return errors_; }
    std::size_t warning_count() const { return warnings_; }
    /// True when any diagnostic has severity >= Error.
    bool has_errors() const { return errors_ > 0; }

    /// Diagnostics in report order.
    const std::vector<Diagnostic>& diagnostics() const { return diags_; }
    /// Diagnostics sorted by (file, line, column, severity desc, code).
    std::vector<const Diagnostic*> sorted() const;
    /// Number of diagnostics carrying the given code.
    std::size_t count_code(std::string_view code) const;

    /// Registers an input's text so render_text can show caret snippets
    /// for locations inside `file`.
    void register_source(std::string file, std::string text);

    /// Human-readable caret-style listing plus a summary line.
    std::string render_text() const;
    /// Machine-readable JSON: {"diagnostics": [...], "errors": N, ...}.
    std::string render_json() const;

    void clear();

private:
    std::vector<Diagnostic> diags_;
    std::set<std::string> seen_;  // dedup keys
    std::map<std::string, std::string> sources_;
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
};

/// Escapes a string for embedding in a JSON string literal (no quotes).
std::string json_escape(std::string_view text);

}  // namespace uhcg::diag
