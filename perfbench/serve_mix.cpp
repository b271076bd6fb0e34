// serve-mix — `uhcg serve` under two closed-loop clients.
//
// An in-process serve::Server (2 workers) listens on a UNIX socket in the
// work directory. Two client connections each send their next request only
// after the previous reply arrived. The mix is simulate 50%, explore 30%,
// generate 20% over 16 30–60-thread models; the seed names the models and
// orders the requests (models.hpp, kStructureSeed). Every fourth request is
// cold: it carries model_xmi bytes the server has not seen (the model's
// XMI with a unique comment), so it pays xml.parse and uml.xmi-load. The
// others name a resident model by model_hash. Every reply must be ok and
// its result must equal the reference computed on a fresh serve::Engine.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "diag/diag.hpp"
#include "models.hpp"
#include "obs/json.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "uml/xmi.hpp"
#include "xml/parser.hpp"

namespace perfbench {

namespace {

using namespace uhcg;

constexpr std::size_t kModels = 16;
constexpr std::size_t kClients = 2;
constexpr std::size_t kBatch = 64;  ///< replies per wall_s batch
const char* const kMethods[3] = {"simulate", "explore", "generate"};

struct Base {
    std::string xmi;
    std::string escaped;  ///< JSON-escaped xmi
    std::string hash;     ///< serve cache key
    std::string reference[3];  ///< expected `result` per method
};

/// Request `i` of the seeded sequence: method, model and temperature.
struct Request {
    std::size_t method = 0;
    std::size_t model = 0;
    bool cold = false;
};

Request request_at(std::uint64_t seed, std::size_t i) {
    // Blocks of 20 requests hold exactly 10 simulate, 6 explore and 4
    // generate, in a seeded order.
    static constexpr std::size_t kBlock[20] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                               1, 1, 1, 1, 1, 1, 2, 2, 2, 2};
    std::size_t block[20];
    std::copy(std::begin(kBlock), std::end(kBlock), block);
    Rng rng(derive_seed(seed, 500 + i / 20));
    for (std::size_t k = 19; k > 0; --k) std::swap(block[k], block[rng.below(k + 1)]);
    Request r;
    r.method = block[i % 20];
    r.model = Rng(derive_seed(seed, 1000000 + i)).below(kModels);
    r.cold = i % 4 == 0;
    return r;
}

/// Request `id` as JSON. Set-up requests (id 0) carry the model's plain
/// XMI; a cold request `id` > 0 carries it with a unique comment after the
/// XML declaration: new bytes, same model.
std::string payload(const Base& base, const Request& r, std::size_t id) {
    std::string out = std::string("{\"method\":\"") + kMethods[r.method] +
                      "\",\"id\":" + std::to_string(id);
    if (!r.cold) return out + ",\"model_hash\":\"" + base.hash + "\"}";
    if (id == 0) return out + ",\"model_xmi\":\"" + base.escaped + "\"}";
    std::string xmi = base.escaped;
    std::size_t decl = xmi.find("?>");
    std::size_t at = decl == std::string::npos ? 0 : decl + 2;
    xmi.insert(at, "<!-- request " + std::to_string(id) + " -->");
    return out + ",\"model_xmi\":\"" + xmi + "\"}";
}

/// The `result` member of a reply, minus explore's `stats` (memo hits and
/// reuse counters legitimately differ between cold and warm requests).
std::string result_of(const std::string& reply) {
    std::size_t at = reply.find(",\"result\":");
    if (at == std::string::npos) return {};
    std::string result = reply.substr(at + 10, reply.size() - at - 11);
    std::size_t stats = result.find(",\"stats\":");
    if (stats != std::string::npos) result = result.substr(0, stats) + "}";
    return result;
}

struct Sample {
    double latency_ms = 0;
    double exec_ms = 0;    ///< the reply's own wall_ms
    double done_ms = 0;    ///< completion time since the loop started
    double cache_hits = -1;  ///< explore replies: memo hits
    std::size_t method = 0;
    bool cold = false;
    bool ok = false;
    std::string why;
};

/// Checks one reply against its reference; returns "" when it matches.
std::string check_reply(const std::string& reply, const Base& base,
                        const Request& r, Sample& s) {
    obs::json::Value doc;
    std::string error;
    if (!obs::json::parse(reply, doc, error)) return "reply is not JSON";
    const obs::json::Value* ok = doc.find("ok");
    if (!ok || !ok->is_bool() || !ok->boolean) {
        const obs::json::Value* e = doc.find("error");
        const obs::json::Value* code = e ? e->find("code") : nullptr;
        return std::string("reply not ok: ") +
               (code && code->is_string() ? code->string : "?");
    }
    if (const obs::json::Value* wall = doc.find("wall_ms"))
        s.exec_ms = wall->number;
    const obs::json::Value* cache = doc.find("cache");
    if (!cache || cache->string != (r.cold ? "miss" : "hit"))
        return std::string(r.cold ? "cold" : "warm") +
               " request reported cache " + (cache ? cache->string : "?");
    if (result_of(reply) != base.reference[r.method])
        return std::string(kMethods[r.method]) + " result differs from the "
               "reference";
    if (r.method == 1) {
        const obs::json::Value* st = doc.find("result")->find("stats");
        auto n = [&](const char* key) {
            const obs::json::Value* v = st ? st->find(key) : nullptr;
            return v ? v->number : -1.0;
        };
        const obs::json::Value* candidates = doc.find("result")->find("candidates");
        if (!candidates ||
            candidates->number !=
                n("simulations") + n("cache_hits") + n("duplicates_skipped"))
            return "explore stats do not add up";
        s.cache_hits = n("cache_hits");
    }
    return "";
}

int connect_to(const std::string& path) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
    }
    return fd;
}

/// One round trip on `fd`; returns false when the connection broke.
bool round_trip(int fd, const std::string& request, std::string& reply) {
    return serve::write_frame(fd, request) &&
           serve::read_frame(fd, reply) == serve::FrameStatus::Ok;
}

std::vector<Base> make_bases(std::uint64_t seed) {
    std::vector<Base> bases(kModels);
    serve::Engine reference{serve::EngineOptions{}};
    for (std::size_t m = 0; m < kModels; ++m) {
        Base& b = bases[m];
        uml::Model model = synth_model(derive_seed(kStructureSeed, 400 + m), m,
                                       30 + 30 * m / (kModels - 1), false);
        model.set_name("serve_" + std::to_string(seed) + "_" +
                       std::to_string(m));
        b.xmi = uml::to_xmi_string(model);
        b.escaped = diag::json_escape(b.xmi);
        b.hash = serve::ModelCache::hash_bytes(b.xmi);
        for (std::size_t k = 0; k < 3; ++k) {
            Request r{k, m, true};
            b.reference[k] = result_of(reference.handle(payload(b, r, 0)));
        }
    }
    return bases;
}

}  // namespace

void run_serve_mix(const Options& options, Outcome& out) {
    std::vector<Base> bases;
    double setup_s =
        median_setup_s(5, [&] { bases = make_bases(options.seed); });
    std::size_t reference_bytes = 0;
    for (std::size_t m = 0; m < kModels; ++m)
        for (std::size_t k = 0; k < 3; ++k) {
            reference_bytes += bases[m].reference[k].size();
            out.exact("model" + std::to_string(m) + "." + kMethods[k],
                      hex16(fnv1a(bases[m].reference[k])));
        }
    out.exact("output_bytes", reference_bytes);

    // Server start and priming are part of set-up.
    Clock::time_point warm_up = Clock::now();
    // The socket lives in the work directory; a relative path keeps it
    // within the sun_path limit wherever the checkout is.
    serve::ServerOptions server_options;
    server_options.socket_path =
        fs::relative(options.work_dir / "serve.sock").string();
    server_options.workers = 2;
    serve::Server server(server_options);
    std::string error;
    if (!server.start(error)) throw std::runtime_error(error);

    std::vector<int> fds;
    for (std::size_t c = 0; c < kClients; ++c)
        fds.push_back(connect_to(server_options.socket_path));
    // Make every model resident (the set-up's warm-up).
    for (std::size_t m = 0; m < kModels; ++m) {
        std::string reply;
        Request r{0, m, true};
        if (!round_trip(fds[0], payload(bases[m], r, 0), reply) ||
            result_of(reply) != bases[m].reference[0])
            throw std::runtime_error("priming the server failed");
    }
    serve::ModelCache::Stats before = server.engine().cache().stats();
    setup_s += ms_since(warm_up) / 1000.0;

    std::atomic<std::size_t> next{1};
    std::vector<std::vector<Sample>> samples(kClients);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds));
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            std::string reply;
            while (Clock::now() < deadline) {
                std::size_t id = next.fetch_add(1);
                Request r = request_at(options.seed, id);
                const Base& base = bases[r.model];
                std::string request = payload(base, r, id);
                Sample s;
                s.cold = r.cold;
                s.method = r.method;
                Clock::time_point sent = Clock::now();
                bool alive = round_trip(fds[c], request, reply);
                Clock::time_point done = Clock::now();
                s.latency_ms = ms_between(sent, done);
                s.done_ms = ms_between(start, done);
                s.why = alive ? check_reply(reply, base, r, s)
                              : "connection broke";
                s.ok = s.why.empty();
                samples[c].push_back(std::move(s));
                if (!alive) break;
            }
        });
    for (std::thread& t : clients) t.join();
    const double loop_ms = ms_since(start);
    serve::ModelCache::Stats after = server.engine().cache().stats();
    for (int fd : fds) ::close(fd);
    server.stop();

    // Per method and temperature: the medians of cold and warm requests
    // are mix-weighted medians of the three methods, so the 50/30/20 mix
    // cannot put them on the edge between two methods' latencies; op_ms.p50
    // weighs those two by the 1-in-4 cold share.
    std::vector<double> all, by_method[2][3], done, exec, transport, hits;
    for (const auto& list : samples)
        for (const Sample& s : list) {
            out.attempt();
            if (!out.check(s.ok, s.why)) continue;
            all.push_back(s.latency_ms);
            by_method[s.cold][s.method].push_back(s.latency_ms);
            done.push_back(s.done_ms);
            exec.push_back(s.exec_ms);
            transport.push_back(s.latency_ms - s.exec_ms);
            if (s.cache_hits >= 0) hits.push_back(s.cache_hits);
        }
    std::cout << "serve: " << all.size() << " replies in " << loop_ms << " ms"
              << std::endl;

    if (options.trace) {
        out.metric("serve.exec_ms", median(exec));
        out.metric("serve.transport_ms", median(transport));
        double h = static_cast<double>(after.hits - before.hits);
        double m = static_cast<double>(after.misses - before.misses);
        out.metric("serve.cache.hit_ratio", h + m > 0 ? h / (h + m) : 0.0);
        out.metric("serve.cache.lookups", h + m);
        out.metric("serve.cache.resident_models",
                   static_cast<double>(after.entries));
        out.metric("dse.cache_hits", median(hits));
        // What a cold request pays before its method runs, per request.
        std::vector<double> parse, load, bytes;
        for (const Base& b : bases) {
            xml::Document doc;
            parse.push_back(time_ms([&] { doc = xml::parse(b.xmi); }));
            load.push_back(time_ms([&] { uml::read_xmi(doc); }));
            bytes.push_back(static_cast<double>(b.xmi.size()));
        }
        out.metric("xml.parse.ms", median(parse));
        out.metric("uml.xmi_load.ms", median(load));
        out.metric("xml.bytes", median(bytes));
        return;
    }

    std::sort(done.begin(), done.end());
    std::vector<double> batches;
    for (std::size_t k = kBatch; k < done.size(); k += kBatch)
        batches.push_back(done[k] - done[k - kBatch]);
    out.metric("setup_s", setup_s);
    out.metric("wall_s", median(batches) / 1000.0);
    out.metric("ops_per_s", 1000.0 * static_cast<double>(all.size()) / loop_ms);
    out.metric("op_ms.p99", percentile(all, 99));
    const double kShare[3] = {0.5, 0.3, 0.2};
    double weighted[2] = {0, 0};
    for (int cold = 0; cold < 2; ++cold)
        for (std::size_t m = 0; m < 3; ++m)
            weighted[cold] += kShare[m] * median(by_method[cold][m]);
    out.metric("op_ms.warm.p50", weighted[0]);
    out.metric("op_ms.cold.p50", weighted[1]);
    out.metric("op_ms.p50", 0.75 * weighted[0] + 0.25 * weighted[1]);
    out.metric("output_bytes", static_cast<double>(reference_bytes));
}

}  // namespace perfbench
