// Robustness suite for the `uhcg serve` daemon: the frame codec's failure
// taxonomy, the Engine's malformed-request corpus (structured errors, never
// process death), cache admission/eviction/warm-hit behaviour, deadlines,
// and the socket Server's admission control and graceful drain.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cases/cases.hpp"
#include "dse/explore.hpp"
#include "obs/json.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "sim/backend.hpp"
#include "uml/xmi.hpp"

namespace {

using namespace uhcg;
namespace fs = std::filesystem;

std::string didactic_xmi() {
    return uml::to_xmi_string(cases::didactic_model());
}

/// A response must be valid uhcg-serve-v1 JSON; returns the parsed doc.
obs::json::Value parsed(const std::string& response) {
    obs::json::Value doc;
    std::string error;
    EXPECT_TRUE(obs::json::parse(response, doc, error))
        << error << "\nresponse: " << response;
    EXPECT_NE(response.find("\"schema\":\"uhcg-serve-v1\""), std::string::npos);
    return doc;
}

bool response_ok(const std::string& response) {
    return response.find("\"ok\":true") != std::string::npos;
}

std::string error_code(const std::string& response) {
    obs::json::Value doc = parsed(response);
    const obs::json::Value* error = doc.find("error");
    if (!error) return "";
    const obs::json::Value* code = error->find("code");
    return code ? code->string : "";
}

// --- frame codec ------------------------------------------------------------
// write_frame/read_frame work on any fd; a pipe gives a socket-free harness.

struct Pipe {
    int fds[2] = {-1, -1};
    Pipe() { EXPECT_EQ(::pipe(fds), 0); }
    ~Pipe() {
        if (fds[0] >= 0) ::close(fds[0]);
        if (fds[1] >= 0) ::close(fds[1]);
    }
    void close_write() {
        ::close(fds[1]);
        fds[1] = -1;
    }
};

TEST(ServeFrame, RoundTripOverPipe) {
    Pipe pipe;
    const std::string payload = "{\"method\":\"ping\"}";
    ASSERT_TRUE(serve::write_frame(pipe.fds[1], payload));
    pipe.close_write();
    std::string read_back;
    EXPECT_EQ(serve::read_frame(pipe.fds[0], read_back), serve::FrameStatus::Ok);
    EXPECT_EQ(read_back, payload);
    // The stream ends cleanly between frames.
    EXPECT_EQ(serve::read_frame(pipe.fds[0], read_back),
              serve::FrameStatus::Eof);
}

TEST(ServeFrame, EncodeMatchesWriteFrame) {
    Pipe pipe;
    ASSERT_TRUE(serve::write_frame(pipe.fds[1], "abc"));
    pipe.close_write();
    std::string wire(serve::kFrameHeaderBytes + 3, '\0');
    ASSERT_EQ(::read(pipe.fds[0], wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    EXPECT_EQ(wire, serve::encode_frame("abc"));
    EXPECT_EQ(wire.substr(0, 4), std::string("\x00\x00\x00\x03", 4));
}

TEST(ServeFrame, TruncatedHeaderIsTruncated) {
    Pipe pipe;
    ASSERT_EQ(::write(pipe.fds[1], "\x00\x00", 2), 2);
    pipe.close_write();
    std::string payload;
    EXPECT_EQ(serve::read_frame(pipe.fds[0], payload),
              serve::FrameStatus::Truncated);
}

TEST(ServeFrame, TruncatedPayloadIsTruncated) {
    Pipe pipe;
    // Declares 8 payload bytes, delivers 3, then the client "dies".
    ASSERT_EQ(::write(pipe.fds[1], "\x00\x00\x00\x08" "abc", 7), 7);
    pipe.close_write();
    std::string payload;
    EXPECT_EQ(serve::read_frame(pipe.fds[0], payload),
              serve::FrameStatus::Truncated);
}

TEST(ServeFrame, OversizedDeclarationIsRejectedBeforeAllocation) {
    Pipe pipe;
    ASSERT_EQ(::write(pipe.fds[1], "\x40\x00\x00\x00", 4), 4);  // 1 GiB
    std::string payload;
    EXPECT_EQ(serve::read_frame(pipe.fds[0], payload, 1 << 20),
              serve::FrameStatus::Oversized);
    EXPECT_NE(payload.find("exceeds limit"), std::string::npos);
}

// --- engine: malformed-request corpus ---------------------------------------
// Every entry must produce exactly one structured uhcg-serve-v1 error —
// never a throw, never a silent drop.

TEST(ServeEngine, MalformedCorpusAlwaysAnswersStructurally) {
    serve::Engine engine{serve::EngineOptions{}};
    struct Case {
        const char* name;
        std::string request;
        const char* expected_code;
    };
    const std::string deep(64, '[');
    const Case corpus[] = {
        {"invalid json", "{nope", "serve.parse"},
        {"empty payload", "", "serve.parse"},
        {"binary garbage", std::string("\x00\xff\x13歪", 7), "serve.parse"},
        {"non-object root", "[1,2,3]", "serve.bad-request"},
        {"missing method", "{\"id\":1}", "serve.bad-request"},
        {"non-string method", "{\"method\":42}", "serve.bad-request"},
        {"unknown method", "{\"method\":\"frobnicate\",\"id\":9}",
         "serve.unknown-method"},
        {"nesting bomb", deep, "serve.parse"},
        {"generate without model", "{\"method\":\"generate\",\"id\":2}",
         "serve.bad-request"},
        {"unknown model hash",
         "{\"method\":\"simulate\",\"id\":3,\"model_hash\":\"cafebabe\"}",
         "serve.unknown-model"},
        {"invalid xmi",
         "{\"method\":\"simulate\",\"id\":4,\"model_xmi\":\"<not-xmi>\"}",
         "serve.model-invalid"},
    };
    for (const Case& c : corpus) {
        std::string response = engine.handle(c.request);
        EXPECT_FALSE(response_ok(response)) << c.name;
        EXPECT_EQ(error_code(response), c.expected_code)
            << c.name << ": " << response;
    }
}

TEST(ServeEngine, RequestIdIsEchoedInErrors) {
    serve::Engine engine{serve::EngineOptions{}};
    std::string response = engine.handle("{\"method\":\"nope\",\"id\":\"r-7\"}");
    EXPECT_NE(response.find("\"id\":\"r-7\""), std::string::npos) << response;
    response = engine.handle("{\"method\":\"nope\",\"id\":41}");
    EXPECT_NE(response.find("\"id\":41"), std::string::npos) << response;
}

TEST(ServeEngine, InvalidModelCarriesDiagnostics) {
    serve::Engine engine{serve::EngineOptions{}};
    std::string response = engine.handle(
        "{\"method\":\"simulate\",\"id\":1,\"model_xmi\":\"<uml:bogus\"}");
    EXPECT_EQ(error_code(response), "serve.model-invalid");
    EXPECT_NE(response.find("\"diagnostics\":["), std::string::npos) << response;
}

TEST(ServeEngine, PingAndStatusAnswer) {
    serve::Engine engine{serve::EngineOptions{}};
    std::string ping = engine.handle("{\"method\":\"ping\",\"id\":1}");
    EXPECT_TRUE(response_ok(ping)) << ping;
    EXPECT_NE(ping.find("\"pong\":true"), std::string::npos);

    std::string status = engine.handle("{\"method\":\"status\",\"id\":2}");
    EXPECT_TRUE(response_ok(status)) << status;
    for (const char* key :
         {"\"uptime_ms\"", "\"requests\"", "\"transport\"", "\"cache\""})
        EXPECT_NE(status.find(key), std::string::npos) << status;
}

TEST(ServeEngine, ShutdownRequestSetsDrainFlag) {
    serve::Engine engine{serve::EngineOptions{}};
    EXPECT_FALSE(engine.shutdown_requested());
    std::string response = engine.handle("{\"method\":\"shutdown\",\"id\":1}");
    EXPECT_TRUE(response_ok(response)) << response;
    EXPECT_TRUE(engine.shutdown_requested());
}

// --- engine: cache ----------------------------------------------------------

TEST(ServeEngine, SecondRequestForSameModelIsAWarmHit) {
    serve::Engine engine{serve::EngineOptions{}};
    std::string xmi = didactic_xmi();
    // Embed the XMI as a JSON string literal.
    auto escaped = [](const std::string& text) {
        std::string out = "\"";
        for (char c : text) {
            switch (c) {
                case '"': out += "\\\""; break;
                case '\\': out += "\\\\"; break;
                case '\n': out += "\\n"; break;
                case '\t': out += "\\t"; break;
                case '\r': out += "\\r"; break;
                default: out += c;
            }
        }
        return out + "\"";
    };
    std::string request_xmi =
        "{\"method\":\"simulate\",\"id\":2,\"model_xmi\":" + escaped(xmi) + "}";
    std::string miss = engine.handle(request_xmi);
    ASSERT_TRUE(response_ok(miss)) << miss;
    EXPECT_NE(miss.find("\"cache\":\"miss\""), std::string::npos) << miss;

    std::string hit = engine.handle(request_xmi);
    ASSERT_TRUE(response_ok(hit)) << hit;
    EXPECT_NE(hit.find("\"cache\":\"hit\""), std::string::npos) << hit;

    serve::ModelCache::Stats stats = engine.cache().stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GE(stats.hits, 1u);
}

TEST(ServeEngine, ModelHashFromOneMethodServesAnother) {
    serve::Engine engine{serve::EngineOptions{}};
    std::shared_ptr<const serve::ResidentModel> resident;
    {
        diag::DiagnosticEngine diagnostics;
        resident = engine.cache().admit(didactic_xmi(), diagnostics);
        ASSERT_TRUE(resident);
    }
    std::string response =
        engine.handle("{\"method\":\"explore\",\"id\":1,\"model_hash\":\"" +
                      resident->hash + "\",\"params\":{\"jobs\":1}}");
    ASSERT_TRUE(response_ok(response)) << response;
    EXPECT_NE(response.find("\"cache\":\"hit\""), std::string::npos);
    EXPECT_NE(response.find("\"candidates\":"), std::string::npos);
}

TEST(ServeEngine, ExploreReportsIncrementalReuseAndStatusRollsItUp) {
    serve::Engine engine{serve::EngineOptions{}};
    dse::clear_simulation_cache();
    std::shared_ptr<const serve::ResidentModel> resident;
    {
        diag::DiagnosticEngine diagnostics;
        resident = engine.cache().admit(didactic_xmi(), diagnostics);
        ASSERT_TRUE(resident);
    }
    // Before any explore the status block exists with zeros, so consumers
    // never need a schema branch.
    std::string status = engine.handle("{\"method\":\"status\",\"id\":0}");
    EXPECT_NE(status.find("\"dse\":{\"explores\":0"), std::string::npos)
        << status;

    // Cold explore: fresh simulations, per-request reuse stats in the
    // response (verify_full exercises the oracle path too).
    std::string cold = engine.handle(
        "{\"method\":\"explore\",\"id\":1,\"model_hash\":\"" + resident->hash +
        "\",\"params\":{\"jobs\":1,\"verify_full\":true}}");
    ASSERT_TRUE(response_ok(cold)) << cold;
    EXPECT_NE(cold.find("\"prefix_tasks_reused\":"), std::string::npos) << cold;
    EXPECT_EQ(cold.find("\"verified\":0"), std::string::npos) << cold;

    // Warm explore: the memo serves everything — zero simulations.
    std::string warm = engine.handle(
        "{\"method\":\"explore\",\"id\":2,\"model_hash\":\"" + resident->hash +
        "\",\"params\":{\"jobs\":1}}");
    ASSERT_TRUE(response_ok(warm)) << warm;
    EXPECT_NE(warm.find("\"stats\":{\"simulations\":0"), std::string::npos)
        << warm;

    // Status rolls both up: 2 explores; "last" shows the warm request
    // (cache hits, no simulations).
    status = engine.handle("{\"method\":\"status\",\"id\":3}");
    ASSERT_TRUE(response_ok(status)) << status;
    EXPECT_NE(status.find("\"dse\":{\"explores\":2"), std::string::npos)
        << status;
    EXPECT_NE(status.find("\"last\":{\"simulations\":0"), std::string::npos)
        << status;
    dse::clear_simulation_cache();
}

TEST(ServeEngine, UnknownBackendListsExactlyTheRegisteredNames) {
    // "sdf" names the removed static-schedule backend: explore and
    // simulate reject it like any unknown name, with the registry's text.
    serve::Engine engine{serve::EngineOptions{}};
    std::shared_ptr<const serve::ResidentModel> resident;
    {
        diag::DiagnosticEngine diagnostics;
        resident = engine.cache().admit(didactic_xmi(), diagnostics);
        ASSERT_TRUE(resident);
    }
    for (const char* method : {"explore", "simulate"}) {
        std::string response = engine.handle(
            std::string("{\"method\":\"") + method +
            "\",\"id\":1,\"model_hash\":\"" + resident->hash +
            "\",\"params\":{\"backend\":\"sdf\"}}");
        EXPECT_EQ(error_code(response), "serve.bad-request") << response;
        obs::json::Value doc = parsed(response);
        const obs::json::Value* message = doc.find("error")->find("message");
        ASSERT_TRUE(message) << response;
        EXPECT_EQ(message->string, sim::unknown_backend_message("sdf"));
        EXPECT_EQ(message->string,
                  "unknown simulation backend 'sdf' (known: dynamic-fifo, "
                  "analytic)");
    }
}

TEST(ServeEngine, CountParamsOutsideTheirTypeAreBadRequests) {
    // Negative, fractional and out-of-range counts used to reach a bare
    // static_cast (undefined behaviour); each is now a bad request naming
    // the param.
    serve::Engine engine{serve::EngineOptions{}};
    std::shared_ptr<const serve::ResidentModel> resident;
    {
        diag::DiagnosticEngine diagnostics;
        resident = engine.cache().admit(didactic_xmi(), diagnostics);
        ASSERT_TRUE(resident);
    }
    struct Probe {
        const char* method;
        const char* param;
        const char* value;
    };
    const Probe probes[] = {
        {"explore", "jobs", "-3"},
        {"explore", "max_processors", "1e300"},
        {"explore", "random_samples", "2.5"},
        {"explore", "chunk", "-0.5"},
        {"generate", "iterations", "-1"},
        {"generate", "gen_jobs", "1.5"},
        {"generate", "max_processors", "1e20"},
        {"generate", "pass_budget_ms", "-10"},
        {"simulate", "max_processors", "3.25"},
    };
    for (const Probe& p : probes) {
        std::string response = engine.handle(
            std::string("{\"method\":\"") + p.method +
            "\",\"id\":1,\"model_hash\":\"" + resident->hash +
            "\",\"params\":{\"" + p.param + "\":" + p.value + "}}");
        EXPECT_EQ(error_code(response), "serve.bad-request")
            << p.method << " " << p.param << "=" << p.value << ": " << response;
        obs::json::Value doc = parsed(response);
        const obs::json::Value* message = doc.find("error")->find("message");
        ASSERT_TRUE(message) << response;
        EXPECT_NE(message->string.find(std::string("'") + p.param + "'"),
                  std::string::npos)
            << message->string;
    }
    // In-range integral counts still serve.
    EXPECT_TRUE(response_ok(engine.handle(
        "{\"method\":\"explore\",\"id\":2,\"model_hash\":\"" + resident->hash +
        "\",\"params\":{\"jobs\":2,\"max_processors\":2,"
        "\"random_samples\":0}}")));
}

TEST(ServeJson, ToUnsignedAcceptsOnlyIntegralCountsThatFit) {
    auto number = [](double n) {
        obs::json::Value v;
        v.kind = obs::json::Value::Kind::Number;
        v.number = n;
        return v;
    };
    EXPECT_EQ(obs::json::to_unsigned<std::size_t>(number(0)), 0u);
    EXPECT_EQ(obs::json::to_unsigned<std::size_t>(number(42)), 42u);
    EXPECT_EQ(obs::json::to_unsigned<std::uint8_t>(number(255)), 255u);
    EXPECT_FALSE(obs::json::to_unsigned<std::uint8_t>(number(256)));
    EXPECT_FALSE(obs::json::to_unsigned<std::size_t>(number(-1)));
    EXPECT_FALSE(obs::json::to_unsigned<std::size_t>(number(2.5)));
    EXPECT_FALSE(obs::json::to_unsigned<std::size_t>(number(1e30)));
    EXPECT_FALSE(obs::json::to_unsigned<std::uint64_t>(number(0x1p64)));
    EXPECT_FALSE(obs::json::to_unsigned<std::size_t>(
        number(std::numeric_limits<double>::infinity())));
    EXPECT_FALSE(obs::json::to_unsigned<std::size_t>(
        number(std::numeric_limits<double>::quiet_NaN())));
    EXPECT_FALSE(obs::json::to_unsigned<std::size_t>(obs::json::Value{}));
}

TEST(ServeCache, EvictsLeastRecentlyUsedUnderByteBudget) {
    // Budget fits roughly one charged model; admitting three distinct
    // models must evict, and the most recent admission must survive.
    diag::DiagnosticEngine diagnostics;
    std::string a = uml::to_xmi_string(cases::didactic_model());
    std::string b = uml::to_xmi_string(cases::crane_model());
    std::string c = uml::to_xmi_string(cases::synthetic_model());
    serve::ModelCache cache(a.size() * 4 + 8192);
    ASSERT_TRUE(cache.admit(a, diagnostics));
    ASSERT_TRUE(cache.admit(b, diagnostics));
    auto resident_c = cache.admit(c, diagnostics);
    ASSERT_TRUE(resident_c);

    serve::ModelCache::Stats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LT(stats.entries, 3u);
    // The newest entry is never the eviction victim.
    EXPECT_TRUE(cache.find(resident_c->hash));
}

TEST(ServeCache, OversizedSingleModelStillServes) {
    diag::DiagnosticEngine diagnostics;
    serve::ModelCache cache(1);  // absurd budget: smaller than any model
    auto resident = cache.admit(didactic_xmi(), diagnostics);
    ASSERT_TRUE(resident);
    EXPECT_TRUE(cache.find(resident->hash));
    EXPECT_EQ(cache.stats().entries, 1u);
}

// --- engine: deadlines ------------------------------------------------------

TEST(ServeEngine, ExpiredDeadlineIsRejectedAtAdmission) {
    serve::Engine engine{serve::EngineOptions{}};
    // The frame was received 80 ms ago; the request allows 5 ms. The queue
    // wait alone exhausted the deadline — no work may start.
    auto received = serve::Engine::Clock::now() - std::chrono::milliseconds(80);
    std::string response = engine.handle(
        "{\"method\":\"ping\",\"id\":1,\"deadline_ms\":5}", received);
    EXPECT_EQ(error_code(response), "serve.deadline") << response;
}

TEST(ServeEngine, DefaultDeadlineAppliesWhenRequestCarriesNone) {
    serve::EngineOptions options;
    options.default_deadline_ms = 5;
    serve::Engine engine{options};
    auto received = serve::Engine::Clock::now() - std::chrono::milliseconds(80);
    std::string late = engine.handle("{\"method\":\"ping\",\"id\":1}", received);
    EXPECT_EQ(error_code(late), "serve.deadline") << late;
    // A fresh request under the same default is fine.
    std::string fresh = engine.handle("{\"method\":\"ping\",\"id\":2}");
    EXPECT_TRUE(response_ok(fresh)) << fresh;
}

TEST(ServeEngine, DeadlineOutsideItsTypeIsABadRequest) {
    // A negative, fractional or out-of-range deadline is a bad request
    // naming the field; a non-number still means "use the default".
    serve::Engine engine{serve::EngineOptions{}};
    for (const char* value : {"-1", "2.5", "1e300"}) {
        std::string response = engine.handle(
            std::string("{\"method\":\"ping\",\"id\":1,\"deadline_ms\":") +
            value + "}");
        EXPECT_EQ(error_code(response), "serve.bad-request") << value;
        EXPECT_NE(response.find("deadline_ms"), std::string::npos) << response;
    }
    std::string text = engine.handle(
        "{\"method\":\"ping\",\"id\":2,\"deadline_ms\":\"soon\"}");
    EXPECT_TRUE(response_ok(text)) << text;
    std::string whole =
        engine.handle("{\"method\":\"ping\",\"id\":3,\"deadline_ms\":60000}");
    EXPECT_TRUE(response_ok(whole)) << whole;
}

// --- engine: rejection payloads (admission control helpers) -----------------

TEST(ServeEngine, OverloadRejectionEchoesIdAndNamesTheBound) {
    serve::Engine engine{serve::EngineOptions{}};
    std::string response = engine.overloaded_response(
        "{\"method\":\"ping\",\"id\":\"burst-3\"}", 64);
    EXPECT_EQ(error_code(response), "serve.overloaded");
    EXPECT_NE(response.find("\"id\":\"burst-3\""), std::string::npos);
    EXPECT_NE(response.find("64"), std::string::npos);
    // Even an unparseable payload gets a structured rejection.
    std::string garbled = engine.overloaded_response("\x01{{{", 8);
    EXPECT_EQ(error_code(garbled), "serve.overloaded");
}

TEST(ServeEngine, ShutdownRejectionIsStructured) {
    serve::Engine engine{serve::EngineOptions{}};
    std::string response =
        engine.shutting_down_response("{\"method\":\"ping\",\"id\":11}");
    EXPECT_EQ(error_code(response), "serve.shutting-down");
    EXPECT_NE(response.find("\"id\":11"), std::string::npos);
}

// --- engine: generate against the real flow ---------------------------------

TEST(ServeEngine, GenerateCommitsTransactionallyWhenAskedTo) {
    fs::path dir = fs::path(testing::TempDir()) / "uhcg_serve_gen";
    fs::remove_all(dir);
    serve::Engine engine{serve::EngineOptions{}};
    std::shared_ptr<const serve::ResidentModel> resident;
    {
        diag::DiagnosticEngine diagnostics;
        resident = engine.cache().admit(didactic_xmi(), diagnostics);
        ASSERT_TRUE(resident);
    }
    std::string response = engine.handle(
        "{\"method\":\"generate\",\"id\":1,\"model_hash\":\"" + resident->hash +
        "\",\"params\":{\"out\":\"" + dir.string() + "\"}}");
    ASSERT_TRUE(response_ok(response)) << response;
    EXPECT_NE(response.find("\"committed\":"), std::string::npos);
    EXPECT_TRUE(fs::exists(dir / "generate-manifest.json"));
    // No stray staging directory survives the commit.
    std::size_t staging = 0;
    for (const auto& entry : fs::directory_iterator(dir.parent_path()))
        if (entry.path().filename().string().find(".uhcg-stage") !=
            std::string::npos)
            ++staging;
    EXPECT_EQ(staging, 0u);
    fs::remove_all(dir);
}

// --- server: socket transport ----------------------------------------------

int connect_unix(const std::string& path) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

std::string rpc(int fd, const std::string& request) {
    EXPECT_TRUE(serve::write_frame(fd, request));
    std::string payload;
    EXPECT_EQ(serve::read_frame(fd, payload), serve::FrameStatus::Ok);
    return payload;
}

struct ServerFixture : ::testing::Test {
    std::string socket_path() {
        // sun_path is 108 bytes; keep it short and unique per test.
        return "/tmp/uhcg_test_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name() +
               ".sock";
    }
};

TEST_F(ServerFixture, ServesOverTheSocketAndDrainsOnStop) {
    serve::ServerOptions options;
    options.socket_path = socket_path();
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_TRUE(server.listening());

    int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    std::string response = rpc(fd, "{\"method\":\"ping\",\"id\":1}");
    EXPECT_TRUE(response_ok(response)) << response;
    ::close(fd);

    server.stop();
    // The socket file is unlinked: later clients get a crisp connection
    // error instead of a hung connect to a dead daemon.
    EXPECT_LT(connect_unix(options.socket_path), 0);
    // stop() is idempotent.
    server.stop();
}

TEST_F(ServerFixture, ClientDyingMidFrameOnlyKillsItsConnection) {
    serve::ServerOptions options;
    options.socket_path = socket_path();
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // Connection 1: declares an 8-byte payload, sends 3 bytes, vanishes.
    int dying = connect_unix(options.socket_path);
    ASSERT_GE(dying, 0);
    ASSERT_EQ(::send(dying, "\x00\x00\x00\x08" "abc", 7, MSG_NOSIGNAL), 7);
    ::close(dying);

    // Connection 2 is unaffected.
    int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(response_ok(rpc(fd, "{\"method\":\"ping\",\"id\":2}")));
    ::close(fd);
    server.stop();
}

TEST_F(ServerFixture, OversizedFrameGetsStructuredRejection) {
    serve::ServerOptions options;
    options.socket_path = socket_path();
    options.max_frame_bytes = 1 << 16;
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, "\x40\x00\x00\x00", 4, MSG_NOSIGNAL), 4);  // 1 GiB
    std::string payload;
    EXPECT_EQ(serve::read_frame(fd, payload), serve::FrameStatus::Ok);
    EXPECT_EQ(error_code(payload), "serve.frame") << payload;
    ::close(fd);

    // The daemon is still serving.
    int fd2 = connect_unix(options.socket_path);
    ASSERT_GE(fd2, 0);
    EXPECT_TRUE(response_ok(rpc(fd2, "{\"method\":\"ping\",\"id\":1}")));
    ::close(fd2);
    server.stop();
}

TEST_F(ServerFixture, InvalidJsonOverTheWireIsAParseError) {
    serve::ServerOptions options;
    options.socket_path = socket_path();
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(error_code(rpc(fd, "this is not json")), "serve.parse");
    EXPECT_EQ(error_code(rpc(fd, "{\"method\":\"wat\"}")),
              "serve.unknown-method");
    ::close(fd);
    server.stop();
}

TEST_F(ServerFixture, ZeroQueueLimitRejectsEverythingAsOverloaded) {
    serve::ServerOptions options;
    options.socket_path = socket_path();
    options.queue_limit = 0;  // admission control floor: nothing admitted
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(error_code(rpc(fd, "{\"method\":\"ping\",\"id\":1}")),
              "serve.overloaded");
    ::close(fd);
    server.stop();
}

TEST_F(ServerFixture, PipelinedRequestsAllGetResponses) {
    serve::ServerOptions options;
    options.socket_path = socket_path();
    options.workers = 3;
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    for (int id = 1; id <= 5; ++id)
        ASSERT_TRUE(serve::write_frame(
            fd, "{\"method\":\"ping\",\"id\":" + std::to_string(id) + "}"));
    // Responses may arrive in any order; ids pair them back up.
    std::set<std::string> ids;
    for (int i = 0; i < 5; ++i) {
        std::string payload;
        ASSERT_EQ(serve::read_frame(fd, payload), serve::FrameStatus::Ok);
        EXPECT_TRUE(response_ok(payload)) << payload;
        std::size_t at = payload.find("\"id\":");
        ASSERT_NE(at, std::string::npos);
        ids.insert(payload.substr(at + 5, payload.find(',', at) - at - 5));
    }
    EXPECT_EQ(ids.size(), 5u);
    ::close(fd);
    server.stop();
}

TEST_F(ServerFixture, ShutdownMethodDrainsTheServer) {
    serve::ServerOptions options;
    options.socket_path = socket_path();
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    std::string response = rpc(fd, "{\"method\":\"shutdown\",\"id\":1}");
    EXPECT_TRUE(response_ok(response)) << response;
    ::close(fd);
    server.wait();  // the shutdown request triggers the drain
    EXPECT_LT(connect_unix(options.socket_path), 0);
}

}  // namespace
