// Tests for the KPN target: metamodel, UML→KPN mapping (the §3
// retargeting) and Kahn-semantics execution including the initial-token ↔
// temporal-barrier correspondence.
#include <gtest/gtest.h>

#include <sstream>

#include "cases/cases.hpp"
#include "core/pipeline.hpp"
#include "kpn/execute.hpp"
#include "kpn/from_uml.hpp"
#include "kpn/model.hpp"
#include "simulink/caam.hpp"
#include "uml/builder.hpp"

namespace {

using namespace uhcg;
using namespace uhcg::kpn;

Network pipeline_network() {
    Network n("pipe");
    Process& src = n.add_process("src");
    src.add_output("x");
    Process& mid = n.add_process("mid");
    mid.add_input("x");
    mid.add_output("y");
    Process& sink = n.add_process("sink");
    sink.add_input("y");
    sink.add_output("z");
    n.connect(src, 0, mid, 0, "x");
    n.connect(mid, 0, sink, 0, "y");
    n.add_network_output(sink, 0, "z");
    return n;
}

KernelRegistry inc_registry() {
    KernelRegistry reg;
    Kernel inc = [](std::span<const double> in, std::span<double> out,
                    std::vector<double>&) {
        double sum = 0.0;
        for (double v : in) sum += v;
        if (!out.empty()) out[0] = sum + 1.0;
    };
    for (const char* k : {"src", "mid", "sink", "work", "A", "B", "C", "D", "E",
                          "F", "G", "H", "I", "J", "L", "M", "T1", "T2", "T3"})
        reg.register_kernel(k, inc);
    return reg;
}

TEST(KpnModel, StructureAndLookups) {
    Network n = pipeline_network();
    EXPECT_EQ(n.processes().size(), 3u);
    EXPECT_NE(n.find_process("mid"), nullptr);
    EXPECT_EQ(n.find_process("ghost"), nullptr);
    EXPECT_EQ(n.channels().size(), 2u);
    EXPECT_EQ(n.network_outputs().size(), 1u);
    const Process* mid = n.find_process("mid");
    EXPECT_EQ(mid->input_named("x"), 0u);
    EXPECT_FALSE(mid->input_named("nope").has_value());
    EXPECT_TRUE(n.check().empty());
}

TEST(KpnModel, DuplicateProcessRejected) {
    Network n("n");
    n.add_process("p");
    EXPECT_THROW(n.add_process("p"), std::invalid_argument);
}

TEST(KpnModel, CheckFindsUnfedInputs) {
    Network n("n");
    Process& p = n.add_process("p");
    p.add_input("lonely");
    auto problems = n.check();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("unfed"), std::string::npos);
}

TEST(KpnModel, CheckFindsDoubleFeeds) {
    Network n("n");
    Process& a = n.add_process("a");
    a.add_output("x");
    Process& b = n.add_process("b");
    b.add_input("x");
    n.connect(a, 0, b, 0, "x");
    n.connect(a, 0, b, 0, "x");  // same consumer port twice
    EXPECT_FALSE(n.check().empty());
}

TEST(KpnModel, ConnectValidatesPorts) {
    Network n("n");
    Process& a = n.add_process("a");
    a.add_output("x");
    Process& b = n.add_process("b");
    b.add_input("x");
    EXPECT_THROW(n.connect(a, 5, b, 0, "x"), std::out_of_range);
    EXPECT_THROW(n.connect(a, 0, b, 9, "x"), std::out_of_range);
}

// --- execution -------------------------------------------------------------------

TEST(KpnExecute, PipelinePropagatesTokens) {
    Network n = pipeline_network();
    KernelRegistry reg = inc_registry();
    Executor exec(n, reg);
    KpnResult r = exec.run(5);
    EXPECT_EQ(r.rounds, 5u);
    EXPECT_EQ(r.firings, 15u);
    // z = ((0+1)+1)+1 per round with stateless increment kernels.
    ASSERT_EQ(r.outputs.at("z").size(), 5u);
    EXPECT_DOUBLE_EQ(r.outputs.at("z")[0], 3.0);
    EXPECT_EQ(r.channel_tokens.at("x"), 5u);
    EXPECT_EQ(r.channel_tokens.at("y"), 5u);
    EXPECT_LE(r.max_queue_depth, 1u);  // single-rate pipeline stays bounded
}

TEST(KpnExecute, NetworkInputsFeedTokens) {
    Network n("io");
    Process& p = n.add_process("work");
    p.add_input("u");
    p.add_output("y");
    n.add_network_input(p, 0, "u");
    n.add_network_output(p, 0, "y");
    KernelRegistry reg = inc_registry();
    Executor exec(n, reg);
    exec.set_input("u", [](std::size_t k) { return static_cast<double>(k) * 10; });
    KpnResult r = exec.run(3);
    ASSERT_EQ(r.outputs.at("y").size(), 3u);
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[2], 21.0);  // 20 + 1
}

TEST(KpnExecute, MissingKernelRejected) {
    Network n("n");
    Process& p = n.add_process("mystery");
    p.add_output("x");
    KernelRegistry empty;
    EXPECT_THROW(Executor(n, empty), std::runtime_error);
}

TEST(KpnExecute, MalformedNetworkRejected) {
    Network n("n");
    Process& p = n.add_process("work");
    p.add_input("unfed");
    KernelRegistry reg = inc_registry();
    EXPECT_THROW(Executor(n, reg), std::runtime_error);
}

TEST(KpnExecute, CyclicWithoutTokensReadBlocks) {
    Network n("cycle");
    Process& a = n.add_process("A");
    a.add_input("b");
    a.add_output("a");
    Process& b = n.add_process("B");
    b.add_input("a");
    b.add_output("b");
    n.connect(a, 0, b, 0, "a");
    n.connect(b, 0, a, 0, "b");
    KernelRegistry reg = inc_registry();
    Executor exec(n, reg);
    try {
        exec.run(1);
        FAIL() << "expected ReadBlockedError";
    } catch (const ReadBlockedError& e) {
        EXPECT_EQ(e.blocked().size(), 2u);
    }
}

TEST(KpnExecute, InitialTokenUnblocksCycle) {
    Network n("cycle");
    Process& a = n.add_process("A");
    a.add_input("b");
    a.add_output("a");
    Process& b = n.add_process("B");
    b.add_input("a");
    b.add_output("b");
    n.connect(a, 0, b, 0, "a");
    n.connect(b, 0, a, 0, "b").initial_tokens = 1;
    KernelRegistry reg = inc_registry();
    Executor exec(n, reg);
    KpnResult r = exec.run(4);
    EXPECT_EQ(r.firings, 8u);
    EXPECT_LE(r.max_queue_depth, 1u);
}

// --- pinned executor results on hand-built networks ---------------------------
//
// Every KpnResult field, rendered in one canonical text: the sweep order
// decides firings, depths, stop points and blocked sets, so any reordering
// of the executor shows up here.

std::string describe(const KpnResult& r) {
    std::ostringstream o;
    o << "rounds=" << r.rounds << " firings=" << r.firings
      << " depth=" << r.max_queue_depth << " deadlocked=" << r.deadlocked
      << " exhausted=" << r.budget_exhausted << "\noutputs:";
    for (const auto& [var, values] : r.outputs) {
        o << ' ' << var << '=';
        for (double v : values) o << v << ',';
    }
    o << "\ntokens:";
    for (const auto& [var, n] : r.channel_tokens) o << ' ' << var << '=' << n;
    o << "\nblocked:";
    for (const std::string& b : r.blocked) o << ' ' << b;
    o << "\nstates:";
    for (const ChannelState& s : r.channel_states)
        o << ' ' << s.producer << '>' << s.consumer << ':' << s.variable << '='
          << s.tokens;
    return o.str();
}

std::string describe(const diag::DiagnosticEngine& engine) {
    std::ostringstream o;
    for (const diag::Diagnostic& d : engine.diagnostics()) {
        o << d.code << ": " << d.message << '\n';
        for (const std::string& n : d.notes) o << "  " << n << '\n';
    }
    return o.str();
}

/// inc_registry() plus "acc" (running sum of the inputs) and "count"
/// (output i = 10 * firing number + i, every output written).
KernelRegistry pinned_registry() {
    KernelRegistry reg = inc_registry();
    reg.register_kernel(
        "acc",
        [](std::span<const double> in, std::span<double> out,
           std::vector<double>& state) {
            for (double v : in) state[0] += v;
            out[0] = state[0];
        },
        1);
    reg.register_kernel(
        "count",
        [](std::span<const double>, std::span<double> out,
           std::vector<double>& state) {
            state[0] += 1.0;
            for (std::size_t i = 0; i < out.size(); ++i)
                out[i] = state[0] * 10.0 + static_cast<double>(i);
        },
        1);
    return reg;
}

TEST(KpnExecutePinned, FanInSweepOrderQueuesTwoTokens) {
    // Declared consumer-first: C's first sweep finds only A's seeded token,
    // so A's push lifts that channel to two tokens before C fires.
    Network n("fanin");
    Process& c = n.add_process("C");
    c.set_kernel("acc");
    c.add_input("a");
    c.add_input("b");
    c.add_output("c");
    Process& a = n.add_process("A");
    a.add_output("a");
    Process& b = n.add_process("B");
    b.add_input("u");
    b.add_output("b");
    Process& d = n.add_process("D");
    d.add_input("a");
    d.add_output("d");  // unconnected: lands in outputs
    n.connect(a, 0, c, 0, "a").initial_tokens = 1;
    n.connect(a, 0, d, 0, "a");
    n.connect(b, 0, c, 1, "b");
    n.add_network_input(b, 0, "u");
    n.add_network_output(c, 0, "c");
    KernelRegistry reg = pinned_registry();
    Executor exec(n, reg);
    exec.set_input("u", [](std::size_t k) { return static_cast<double>(k) * 10; });
    KpnResult r = exec.run(3);
    EXPECT_EQ(describe(r),
              "rounds=3 firings=12 depth=2 deadlocked=0 exhausted=0\n"
              "outputs: c=1,13,35, d=2,2,2,\n"
              "tokens: a=6 b=3\n"
              "blocked:\n"
              "states:");
}

TEST(KpnExecutePinned, SeedConsumedByTheFirstFiringThenReadBlock) {
    // X fires first and eats one of its channel's two seeds; the P <-> Q
    // cycle has no seed, so the run read-blocks in round 1 having
    // observed a depth of 1, never the seeded 2.
    Network n("seeded");
    Process& x = n.add_process("X");
    x.add_input("x");
    x.add_output("y");
    Process& p = n.add_process("P");
    p.add_input("q");
    p.add_output("p");
    p.add_output("x");
    Process& q = n.add_process("Q");
    q.add_input("p");
    q.add_output("q");
    n.connect(p, 1, x, 0, "x").initial_tokens = 2;
    n.connect(p, 0, q, 0, "p");
    n.connect(q, 0, p, 0, "q");
    n.add_network_output(x, 0, "y");
    KernelRegistry reg = pinned_registry();
    reg.register_kernel("X", reg.kernel("src"));
    reg.register_kernel("P", reg.kernel("src"));
    reg.register_kernel("Q", reg.kernel("src"));

    diag::DiagnosticEngine engine;
    KpnResult r = Executor(n, reg).run(4, engine);
    EXPECT_EQ(describe(r),
              "rounds=0 firings=1 depth=1 deadlocked=1 exhausted=0\n"
              "outputs: y=1,\n"
              "tokens: x=1\n"
              "blocked: P Q\n"
              "states: P>X:x=1 P>Q:p=0 Q>P:q=0");
    EXPECT_EQ(describe(engine),
              "kpn.read-blocked: KPN read-blocked in round 1 — 2 process(es) "
              "cannot fire\n"
              "  blocked process(es): P Q\n"
              "  channel 'x' (P -> X): 1 token(s)\n"
              "  channel 'p' (P -> Q): 0 token(s)\n"
              "  channel 'q' (Q -> P): 0 token(s)\n"
              "  cyclic network without initial tokens?\n");

    try {
        Executor(n, reg).run(4);
        FAIL() << "expected ReadBlockedError";
    } catch (const ReadBlockedError& e) {
        EXPECT_EQ(e.blocked(), (std::vector<std::string>{"P", "Q"}));
        ASSERT_EQ(e.channels().size(), 3u);
        EXPECT_EQ(e.channels()[0].tokens, 1u);
    }
}

TEST(KpnExecutePinned, SharedVariableTokensSumAndSinksCollectOutputs) {
    // S's port "v" fans out over two channels that share the variable;
    // "w" is both a network output and a channel; "z" is unconnected.
    Network n("shared");
    Process& s = n.add_process("S");
    s.set_kernel("count");
    s.add_output("v");
    s.add_output("w");
    s.add_output("z");
    Process& t = n.add_process("T");
    t.set_kernel("acc");
    t.add_input("v");
    t.add_input("w");
    t.add_output("t");
    Process& u = n.add_process("U");
    u.set_kernel("acc");
    u.add_input("v");
    u.add_output("u");
    n.connect(s, 0, t, 0, "v");
    n.connect(s, 0, u, 0, "v");
    n.connect(s, 1, t, 1, "w");
    n.add_network_output(s, 1, "w");
    n.add_network_output(u, 0, "u");
    KernelRegistry reg = pinned_registry();
    KpnResult r = Executor(n, reg).run(2);
    EXPECT_EQ(describe(r),
              "rounds=2 firings=6 depth=1 deadlocked=0 exhausted=0\n"
              "outputs: t=21,62, u=10,30, w=11,21, z=12,22,\n"
              "tokens: v=4 w=2\n"
              "blocked:\n"
              "states:");
}

TEST(KpnExecutePinned, WatchdogStopsMidRound) {
    Network n = pipeline_network();
    n.channels()[1].initial_tokens = 3;
    KernelRegistry reg = inc_registry();
    diag::DiagnosticEngine engine;
    WatchdogBudget budget;
    budget.max_firings = 7;
    KpnResult r = Executor(n, reg).run(10, engine, budget);
    EXPECT_EQ(describe(r),
              "rounds=2 firings=7 depth=4 deadlocked=0 exhausted=1\n"
              "outputs: z=1,1,\n"
              "tokens: x=2 y=2\n"
              "blocked:\n"
              "states: src>mid:x=1 mid>sink:y=3");
    EXPECT_EQ(describe(engine),
              "kpn.watchdog: KPN execution exceeded the firing budget (7 "
              "firings) — stopping after round 2\n"
              "  network 'pipe'\n");
}

// --- UML → KPN mapping --------------------------------------------------------------

TEST(KpnMapping, SyntheticBecomesTwelveProcesses) {
    uml::Model syn = cases::synthetic_model();
    KpnMappingOutput out = map_to_kpn(syn);
    EXPECT_TRUE(out.warnings.empty());
    EXPECT_EQ(out.network.processes().size(), 12u);
    EXPECT_EQ(out.network.channels().size(), 14u);  // one per Fig. 7(a) edge
    EXPECT_EQ(out.initial_tokens_inserted, 0u);     // the DAG needs none
    EXPECT_TRUE(out.network.check().empty());
    // Process order follows the model's thread order; each process lists
    // its received variables, then its produced ones, in link order.
    const std::vector<std::string> expected = {
        "A in: out: vA",         "B in: vA out: vB", "C in: vB out: vC",
        "D in: vC out: vD",      "E in: vA out: vE", "F in: vD out: vF",
        "G in: vB out: vG",      "H in: vC out: vH", "I in: vE out: vI",
        "J in: vF vI vL vM out:", "L in: vH out: vL", "M in: vG out: vM"};
    std::vector<std::string> shape;
    for (const Process* p : out.network.processes()) {
        std::string line = p->name() + " in:";
        for (std::size_t i = 0; i < p->input_count(); ++i) line += " " + p->input_name(i);
        line += " out:";
        for (std::size_t i = 0; i < p->output_count(); ++i) line += " " + p->output_name(i);
        shape.push_back(line);
    }
    EXPECT_EQ(shape, expected);
    // J's four inputs are fed in channel order, one port each.
    const ChannelDecl& last = out.network.channels().back();
    EXPECT_EQ(last.producer->name() + " -> " + last.consumer->name(), "M -> J");
    EXPECT_EQ(last.consumer_port, 3u);
}

TEST(KpnMapping, SyntheticExecutes) {
    uml::Model syn = cases::synthetic_model();
    KpnMappingOutput out = map_to_kpn(syn);
    KernelRegistry reg = inc_registry();
    Executor exec(out.network, reg);
    KpnResult r = exec.run(10);
    EXPECT_EQ(r.firings, 120u);
    // Every channel moved one token per round (counts are keyed by the
    // variable, so fan-out variables accumulate across their channels).
    std::map<std::string, std::size_t> expected;
    for (const ChannelDecl& c : out.network.channels())
        expected[c.variable] += 10u;
    for (const auto& [var, tokens] : r.channel_tokens)
        EXPECT_EQ(tokens, expected.at(var)) << var;
}

TEST(KpnMapping, CraneGetsInitialTokenForItsLoop) {
    uml::Model crane = cases::crane_model();
    KpnMappingOutput out = map_to_kpn(crane);
    EXPECT_EQ(out.network.processes().size(), 3u);
    EXPECT_EQ(out.network.channels().size(), 4u);
    // The T1→T2→T3→T1 loop needs exactly one seed (it breaks both cycles,
    // mirroring the single UnitDelay of the CAAM branch).
    EXPECT_GE(out.initial_tokens_inserted, 1u);
    KernelRegistry reg = inc_registry();
    Executor exec(out.network, reg);
    EXPECT_NO_THROW(exec.run(20));
}

TEST(KpnMapping, CraneWithoutSeedsReadBlocks) {
    uml::Model crane = cases::crane_model();
    KpnMappingOptions options;
    options.auto_initial_tokens = false;
    KpnMappingOutput out = map_to_kpn(crane, options);
    KernelRegistry reg = inc_registry();
    Executor exec(out.network, reg);
    EXPECT_THROW(exec.run(1), ReadBlockedError);
}

TEST(KpnMapping, IoBecomesNetworkPorts) {
    uml::Model didactic = cases::didactic_model();
    KpnMappingOutput out = map_to_kpn(didactic);
    // T3's getValue → network input "s"; T2's setOut → network output "w"
    // ... except w is an <<IO>> write of a locally computed value, which
    // needs an output port on T2.
    ASSERT_EQ(out.network.network_inputs().size(), 1u);
    EXPECT_EQ(out.network.network_inputs()[0].variable, "s");
    ASSERT_EQ(out.network.network_outputs().size(), 1u);
    EXPECT_EQ(out.network.network_outputs()[0].variable, "w");
    EXPECT_TRUE(out.network.check().empty());
}

TEST(KpnMapping, EquivalentStructureToCaamChannels) {
    // The KPN channels and the CAAM channels describe the same links.
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    KpnMappingOutput out = map_to_kpn(syn, comm);
    std::set<std::string> kpn_links;
    for (const ChannelDecl& c : out.network.channels())
        kpn_links.insert(c.producer->name() + ">" + c.consumer->name() + ":" +
                         c.variable);
    std::set<std::string> comm_links;
    for (const core::Channel& c : comm.channels())
        comm_links.insert(c.producer->name() + ">" + c.consumer->name() + ":" +
                          c.variable);
    EXPECT_EQ(kpn_links, comm_links);
}

TEST(KpnMapping, NameCollidingLinksKeepTheirChannels) {
    // "A>B" -> C and A -> "B>C" both send x. Keyed as one
    // "producer>consumer:var" string they were the same link, and the KPN
    // lost a channel the CAAM branch instantiates.
    uml::ModelBuilder b("collide");
    for (const char* t : {"A", "A>B", "B>C", "C"}) b.thread(t);
    b.iodevice("Dev");
    auto sd = b.seq("sd");
    sd.message("A>B", "Dev", "getX").result("x");
    sd.message("A>B", "C", "SetX").arg("x");
    sd.message("A", "Dev", "getX").result("x");
    sd.message("A", "B>C", "SetX").arg("x");
    sd.message("C", "Dev", "setOut").arg("x");
    sd.message("B>C", "Dev", "setOut").arg("x");
    uml::Model model = b.take();

    core::MapperOptions options;
    options.auto_allocate = true;
    simulink::Model caam = core::map_to_caam(model, options);
    const std::size_t caam_channels = simulink::intra_cpu_channels(caam).size() +
                                      simulink::inter_cpu_channels(caam).size();
    EXPECT_EQ(caam_channels, 2u);
    KpnMappingOutput out = map_to_kpn(model);
    EXPECT_EQ(out.network.channels().size(), caam_channels);
    EXPECT_TRUE(out.warnings.empty());
}

}  // namespace
