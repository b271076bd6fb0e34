#include "campaign/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/hash.hpp"
#include "diag/diag.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace uhcg::campaign {

namespace {

constexpr const char* kHashSuffix = ",\"h\":\"";

std::string hex16(std::uint64_t value) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xF];
        value >>= 4;
    }
    return out;
}

/// Serializes everything *before* the `,"h":"…"}` guard. Field order is
/// fixed — the line bytes are part of what resume byte-compares.
std::string serialize_body(const JournalEntry& entry) {
    std::ostringstream out;
    out << "{\"schema\":\"uhcg-campaign-journal-v1\""
        << ",\"job\":\"" << diag::json_escape(entry.job) << "\""
        << ",\"dir\":\"" << diag::json_escape(entry.dir) << "\""
        << ",\"status\":\"" << diag::json_escape(entry.status) << "\""
        << ",\"attempts\":" << entry.attempts;
    if (!entry.report_hash.empty())
        out << ",\"report_hash\":\"" << diag::json_escape(entry.report_hash)
            << "\"";
    if (!entry.error_code.empty())
        out << ",\"error_code\":\"" << diag::json_escape(entry.error_code)
            << "\""
            << ",\"error_message\":\""
            << diag::json_escape(entry.error_message) << "\"";
    return out.str();
}

/// Verifies the `,"h":"<16 hex>"}` guard and parses the line. Returns
/// false for torn, truncated or tampered lines.
bool parse_line(const std::string& line, JournalEntry& out) {
    std::size_t mark = line.rfind(kHashSuffix);
    if (mark == std::string::npos) return false;
    std::string body = line.substr(0, mark);
    std::string tail = line.substr(mark + std::string(kHashSuffix).size());
    if (tail.size() != 16 + 2 || tail.substr(16) != "\"}") return false;
    if (tail.substr(0, 16) !=
        hex16(core::fnv1a(body)))
        return false;

    obs::json::Value doc;
    std::string error;
    if (!obs::json::parse(body + "}", doc, error) || !doc.is_object())
        return false;
    const obs::json::Value* schema = doc.find("schema");
    if (!schema || !schema->is_string() ||
        schema->string != "uhcg-campaign-journal-v1")
        return false;
    auto text = [&doc](const char* key) -> std::string {
        const obs::json::Value* v = doc.find(key);
        return v && v->is_string() ? v->string : std::string();
    };
    out.job = text("job");
    out.dir = text("dir");
    out.status = text("status");
    out.report_hash = text("report_hash");
    out.error_code = text("error_code");
    out.error_message = text("error_message");
    if (const obs::json::Value* attempts = doc.find("attempts"))
        if (attempts->is_number() && attempts->number >= 0)
            out.attempts = static_cast<std::size_t>(attempts->number);
    return !out.job.empty() &&
           (out.status == "ok" || out.status == "quarantined");
}

}  // namespace

Journal::~Journal() { close(); }

std::vector<JournalEntry> Journal::load() const {
    std::vector<JournalEntry> entries;
    std::ifstream in(path_, std::ios::binary);
    if (!in) return entries;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        JournalEntry entry;
        if (parse_line(line, entry)) {
            entries.push_back(std::move(entry));
        } else {
            obs::counter("campaign.journal_torn").add();
        }
    }
    return entries;
}

void Journal::open_for_append(bool truncate) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) return;
    int flags = O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
    fd_ = ::open(path_.c_str(), flags, 0644);
    if (fd_ < 0)
        throw std::runtime_error("cannot open campaign journal '" +
                                 path_.string() + "'");
}

void Journal::append(const JournalEntry& entry) {
    std::string body = serialize_body(entry);
    std::string line = body + kHashSuffix +
                       hex16(core::fnv1a(body)) + "\"}\n";
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        throw std::logic_error("journal append before open_for_append");
    // One write(2) for the whole line: after a kill -9 the kernel either
    // has the full line or (at worst, mid-syscall) a prefix that the hash
    // guard rejects on load. Never two syscalls — that is how torn lines
    // that *look* intact happen.
    ssize_t written =
        ::write(fd_, line.data(), line.size());
    if (written != static_cast<ssize_t>(line.size()))
        throw std::runtime_error("short write to campaign journal '" +
                                 path_.string() + "'");
    ++appended_;
    obs::counter("campaign.journal_appends").add();
}

void Journal::close() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

}  // namespace uhcg::campaign
