// Tests for the execution engine (block semantics, scheduling, hierarchy
// flattening, deadlock detection) and the MPSoC cost simulator.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/backend.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/mpsoc.hpp"
#include "taskgraph/baselines.hpp"
#include "taskgraph/generate.hpp"
#include "taskgraph/linear.hpp"

namespace {

using namespace uhcg;
using namespace uhcg::sim;
using simulink::Block;
using simulink::BlockType;

simulink::Model flat_model() {
    simulink::Model m("flat");
    m.fixed_step = 1.0;
    Block& in = m.root().add_block("u", BlockType::Inport);
    in.set_parameter("Port", "1");
    Block& gain = m.root().add_block("g", BlockType::Gain);
    gain.set_parameter("Gain", "3");
    Block& out = m.root().add_block("y", BlockType::Outport);
    out.set_parameter("Port", "1");
    m.root().add_line({&in, 1}, {&gain, 1});
    m.root().add_line({&gain, 1}, {&out, 1});
    return m;
}

TEST(Simulator, GainScalesInput) {
    simulink::Model m = flat_model();
    SFunctionRegistry reg;
    Simulator sim(m, reg);
    sim.set_input("u", [](double t) { return t + 1.0; });
    SimResult r = sim.run(3);
    ASSERT_EQ(r.outputs.at("y").size(), 3u);
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[0], 3.0);
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[2], 9.0);
}

TEST(Simulator, UnboundInputsReadZero) {
    simulink::Model m = flat_model();
    SFunctionRegistry reg;
    Simulator sim(m, reg);
    SimResult r = sim.run(2);
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[1], 0.0);
}

TEST(Simulator, SumSignsAndProduct) {
    simulink::Model m("arith");
    Block& a = m.root().add_block("a", BlockType::Constant);
    a.set_parameter("Value", "10");
    Block& b = m.root().add_block("b", BlockType::Constant);
    b.set_parameter("Value", "4");
    Block& sub = m.root().add_block("sub", BlockType::Sum);
    sub.set_parameter("Inputs", "+-");
    Block& prod = m.root().add_block("prod", BlockType::Product);
    Block& out = m.root().add_block("y", BlockType::Outport);
    out.set_parameter("Port", "1");
    m.root().add_line({&a, 1}, {&sub, 1});
    m.root().add_line({&b, 1}, {&sub, 2});
    m.root().add_line({&sub, 1}, {&prod, 1});
    m.root().add_line({&b, 1}, {&prod, 2});
    m.root().add_line({&prod, 1}, {&out, 1});
    SFunctionRegistry reg;
    Simulator sim(m, reg);
    SimResult r = sim.run(1);
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[0], (10.0 - 4.0) * 4.0);
}

TEST(Simulator, UnitDelayShiftsByOneStep) {
    simulink::Model m("z");
    Block& in = m.root().add_block("u", BlockType::Inport);
    in.set_parameter("Port", "1");
    Block& z = m.root().add_block("z", BlockType::UnitDelay);
    z.set_parameter("InitialCondition", "7");
    Block& out = m.root().add_block("y", BlockType::Outport);
    out.set_parameter("Port", "1");
    m.root().add_line({&in, 1}, {&z, 1});
    m.root().add_line({&z, 1}, {&out, 1});
    SFunctionRegistry reg;
    Simulator sim(m, reg);
    sim.set_input("u", [](double t) { return t * 10.0; });
    SimResult r = sim.run(3);
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[0], 7.0);   // initial condition
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[1], 0.0);   // u(0)
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[2], 10.0);  // u(1)
}

TEST(Simulator, AccumulatorLoopThroughDelay) {
    // y[k+1] = y[k] + 1 — a legal cycle because the delay breaks it.
    simulink::Model m("acc");
    Block& one = m.root().add_block("one", BlockType::Constant);
    one.set_parameter("Value", "1");
    Block& sum = m.root().add_block("sum", BlockType::Sum);
    Block& z = m.root().add_block("z", BlockType::UnitDelay);
    Block& out = m.root().add_block("y", BlockType::Outport);
    out.set_parameter("Port", "1");
    m.root().add_line({&one, 1}, {&sum, 1});
    m.root().add_line({&z, 1}, {&sum, 2});
    m.root().add_line({&sum, 1}, {&z, 1});
    m.root().add_line({&sum, 1}, {&out, 1});
    SFunctionRegistry reg;
    Simulator sim(m, reg);
    SimResult r = sim.run(5);
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[4], 5.0);
}

TEST(Simulator, SFunctionStateAndDispatch) {
    simulink::Model m("sf");
    Block& f = m.root().add_block("counter", BlockType::SFunction);
    f.set_ports(0, 1);
    f.set_parameter("FunctionName", "count");
    Block& out = m.root().add_block("y", BlockType::Outport);
    out.set_parameter("Port", "1");
    m.root().add_line({&f, 1}, {&out, 1});
    SFunctionRegistry reg;
    reg.register_function(
        "count",
        [](std::span<const double>, std::span<double> out, double,
           std::vector<double>& state) { out[0] = ++state[0]; },
        1);
    Simulator sim(m, reg);
    SimResult r = sim.run(4);
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[3], 4.0);
}

TEST(Simulator, UnregisteredSFunctionThrows) {
    simulink::Model m("sf");
    Block& f = m.root().add_block("mystery", BlockType::SFunction);
    f.set_ports(0, 1);
    SFunctionRegistry reg;
    EXPECT_THROW(Simulator(m, reg), std::runtime_error);
}

TEST(Simulator, HierarchyIsFlattened) {
    simulink::Model m("h");
    Block& in = m.root().add_block("u", BlockType::Inport);
    in.set_parameter("Port", "1");
    Block& sub = m.root().add_subsystem("S");
    sub.set_ports(1, 1);
    Block& i = sub.system()->add_block("i", BlockType::Inport);
    i.set_parameter("Port", "1");
    Block& g = sub.system()->add_block("g", BlockType::Gain);
    g.set_parameter("Gain", "5");
    Block& o = sub.system()->add_block("o", BlockType::Outport);
    o.set_parameter("Port", "1");
    sub.system()->add_line({&i, 1}, {&g, 1});
    sub.system()->add_line({&g, 1}, {&o, 1});
    Block& out = m.root().add_block("y", BlockType::Outport);
    out.set_parameter("Port", "1");
    m.root().add_line({&in, 1}, {&sub, 1});
    m.root().add_line({&sub, 1}, {&out, 1});
    SFunctionRegistry reg;
    Simulator sim(m, reg);
    sim.set_input("u", [](double) { return 2.0; });
    SimResult r = sim.run(1);
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[0], 10.0);
    // Schedule contains only atomic blocks (markers dissolved).
    for (const std::string& path : sim.schedule())
        EXPECT_EQ(path.find("S/i"), std::string::npos) << path;
}

TEST(Simulator, DeadlockErrorNamesCycle) {
    simulink::Model m("dead");
    Block& g1 = m.root().add_block("g1", BlockType::Gain);
    Block& g2 = m.root().add_block("g2", BlockType::Gain);
    m.root().add_line({&g1, 1}, {&g2, 1});
    m.root().add_line({&g2, 1}, {&g1, 1});
    SFunctionRegistry reg;
    try {
        Simulator sim(m, reg);
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError& e) {
        EXPECT_EQ(e.cycle().size(), 2u);
        EXPECT_NE(std::string(e.what()).find("g1"), std::string::npos);
    }
}

TEST(Simulator, ChannelTrafficCountedByProtocol) {
    simulink::Model m("chan");
    Block& c = m.root().add_block("c", BlockType::Constant);
    Block& chan = m.root().add_block("ch", BlockType::CommChannel);
    chan.set_parameter("Protocol", "GFIFO");
    Block& out = m.root().add_block("y", BlockType::Outport);
    out.set_parameter("Port", "1");
    m.root().add_line({&c, 1}, {&chan, 1});
    m.root().add_line({&chan, 1}, {&out, 1});
    SFunctionRegistry reg;
    Simulator sim(m, reg);
    SimResult r = sim.run(6);
    EXPECT_EQ(r.channel_traffic.at("GFIFO"), 6u);
}

TEST(Simulator, ScopesRecordFullPaths) {
    simulink::Model m("sc");
    Block& c = m.root().add_block("c", BlockType::Constant);
    c.set_parameter("Value", "2");
    Block& scope = m.root().add_block("watch", BlockType::Scope);
    m.root().add_line({&c, 1}, {&scope, 1});
    SFunctionRegistry reg;
    Simulator sim(m, reg);
    SimResult r = sim.run(2);
    ASSERT_EQ(r.scopes.at("watch").size(), 2u);
    EXPECT_DOUBLE_EQ(r.scopes.at("watch")[1], 2.0);
}

TEST(Simulator, RunUsesStopTimeAndFixedStep) {
    simulink::Model m = flat_model();
    m.stop_time = 5.0;
    m.fixed_step = 0.5;
    SFunctionRegistry reg;
    Simulator sim(m, reg);
    SimResult r = sim.run();
    EXPECT_EQ(r.steps, 10u);
    EXPECT_DOUBLE_EQ(r.time[1], 0.5);
}

// --- MPSoC cost simulator ------------------------------------------------------------

TEST(Mpsoc, SingleCpuHasNoBusTraffic) {
    taskgraph::TaskGraph g = taskgraph::paper_synthetic_graph();
    MpsocResult r =
        simulate_mpsoc(g, taskgraph::single_cluster(g), MpsocParams{});
    EXPECT_EQ(r.bus_transfers, 0u);
    EXPECT_DOUBLE_EQ(r.inter_traffic, 0.0);
    // All work serializes on one CPU; SWFIFO latency can only stretch it.
    EXPECT_GE(r.makespan, g.total_weight() * 100.0);
    EXPECT_LE(r.makespan, g.total_weight() * 100.0 + g.total_edge_cost());
}

TEST(Mpsoc, InterTrafficMatchesClusteringMetric) {
    taskgraph::TaskGraph g = taskgraph::paper_synthetic_graph();
    taskgraph::Clustering c = taskgraph::linear_clustering(g);
    MpsocResult r = simulate_mpsoc(g, c);
    EXPECT_DOUBLE_EQ(r.inter_traffic, taskgraph::inter_cluster_cost(g, c));
    EXPECT_DOUBLE_EQ(r.intra_traffic, taskgraph::intra_cluster_cost(g, c));
}

TEST(Mpsoc, SharedBusSerializesTransfers) {
    taskgraph::TaskGraph g = taskgraph::fork_join_graph(4, 1, 1.0, 10.0);
    taskgraph::Clustering c = taskgraph::round_robin_clustering(g, 4);
    MpsocParams contended;
    MpsocParams ideal;
    ideal.shared_bus = false;
    double with_bus = simulate_mpsoc(g, c, contended).makespan;
    double without = simulate_mpsoc(g, c, ideal).makespan;
    EXPECT_GT(with_bus, without);
}

TEST(Mpsoc, GFifoCostAsymmetryFavoursColocation) {
    // Same graph, same cluster count: clustering the heavy chain together
    // must beat splitting it, because GFIFO costs dominate.
    taskgraph::TaskGraph g = taskgraph::chain_graph(6, 1.0, 20.0);
    taskgraph::Clustering together = taskgraph::single_cluster(g);
    taskgraph::Clustering split = taskgraph::round_robin_clustering(g, 2);
    EXPECT_LT(simulate_mpsoc(g, together).makespan,
              simulate_mpsoc(g, split).makespan);
}

TEST(Mpsoc, CpuBusyAccountsAllWork) {
    taskgraph::TaskGraph g = taskgraph::paper_synthetic_graph();
    taskgraph::Clustering c = taskgraph::linear_clustering(g);
    MpsocParams params;
    MpsocResult r = simulate_mpsoc(g, c, params);
    double total_busy = 0.0;
    for (double b : r.cpu_busy) total_busy += b;
    EXPECT_DOUBLE_EQ(total_busy, g.total_weight() * params.cycles_per_work);
}

TEST(Mpsoc, MismatchedClusteringRejected) {
    taskgraph::TaskGraph g = taskgraph::chain_graph(3, 1.0, 1.0);
    taskgraph::Clustering wrong(5);
    EXPECT_THROW(simulate_mpsoc(g, wrong), std::invalid_argument);
}

// --- incremental batch evaluation (sim::MpsocBatch) --------------------------

void expect_same_result(const MpsocResult& a, const MpsocResult& b) {
    // Bitwise: the incremental path must replay the exact arithmetic the
    // from-scratch path performs, not merely approximate it.
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.bus_busy, b.bus_busy);
    EXPECT_EQ(a.inter_traffic, b.inter_traffic);
    EXPECT_EQ(a.intra_traffic, b.intra_traffic);
    EXPECT_EQ(a.bus_transfers, b.bus_transfers);
    EXPECT_EQ(a.cpu_busy, b.cpu_busy);
}

TEST(MpsocBatch, DeltaCostMathOnHandBuiltChain) {
    // A -> B -> C with weights 1,2,3 and edge costs 5,7; {A,B} on CPU0,
    // {C} on CPU1. Every number below is derivable by hand:
    //   A: finish 100, A->B intra, arrival 100 + 5*1 = 105
    //   B: ready max(100,105)=105, finish 305; B->C inter,
    //      duration 20 + 7*10 = 90, arrival 395, bus busy 90
    //   C: ready 395, finish 695
    taskgraph::TaskGraph g;
    auto a = g.add_task("A", 1.0);
    auto b = g.add_task("B", 2.0);
    auto c = g.add_task("C", 3.0);
    g.add_edge(a, b, 5.0);
    g.add_edge(b, c, 7.0);
    taskgraph::Clustering split =
        taskgraph::Clustering::from_assignment({0, 0, 1});
    MpsocPrep prep(g, MpsocParams{});
    MpsocBatch batch(prep);
    MpsocResult r = batch.evaluate(split);
    EXPECT_DOUBLE_EQ(r.makespan, 695.0);
    EXPECT_DOUBLE_EQ(r.intra_traffic, 5.0);
    EXPECT_DOUBLE_EQ(r.inter_traffic, 7.0);
    EXPECT_DOUBLE_EQ(r.bus_busy, 90.0);
    EXPECT_EQ(r.bus_transfers, 1u);
    ASSERT_EQ(r.cpu_busy.size(), 2u);
    EXPECT_DOUBLE_EQ(r.cpu_busy[0], 300.0);
    EXPECT_DOUBLE_EQ(r.cpu_busy[1], 300.0);

    // Delta step: move B next to C. The schedule must restart at A (the
    // producer of an edge into the moved task).
    taskgraph::Clustering moved =
        taskgraph::Clustering::from_assignment({0, 1, 1});
    MpsocResult m = batch.evaluate(moved);
    //   A: finish 100; A->B inter, duration 20 + 50 = 70, arrival 170
    //   B: ready 170, finish 370; B->C intra, arrival 370 + 7 = 377
    //   C: ready 377, finish 677
    EXPECT_DOUBLE_EQ(m.makespan, 677.0);
    EXPECT_DOUBLE_EQ(m.inter_traffic, 5.0);
    EXPECT_DOUBLE_EQ(m.intra_traffic, 7.0);
    EXPECT_DOUBLE_EQ(m.bus_busy, 70.0);
    expect_same_result(m, simulate_mpsoc(g, moved));
}

TEST(MpsocBatch, IncrementalMatchesFullOnNeighborSequence) {
    // Walk a chain of single-task moves through one batch; every step must
    // equal a from-scratch evaluation (simulate_mpsoc is history-free).
    taskgraph::TaskGraph g = taskgraph::fork_join_graph(5, 2, 2.0, 3.0);
    const std::size_t n = g.task_count();
    MpsocPrep prep(g, MpsocParams{});
    MpsocBatch batch(prep);
    std::vector<int> assignment(n);
    for (std::size_t t = 0; t < n; ++t)
        assignment[t] = static_cast<int>(t % 3);
    for (std::size_t move = 0; move < n; ++move) {
        assignment[move] = static_cast<int>((assignment[move] + 1) % 3);
        taskgraph::Clustering c =
            taskgraph::Clustering::from_assignment(assignment);
        expect_same_result(batch.evaluate(c), simulate_mpsoc(g, c));
    }
    EXPECT_EQ(batch.stats().evaluated, n);
    // Single-task moves leave a schedule prefix intact — the reuse the DSE
    // sweep banks on.
    EXPECT_GT(batch.stats().prefix_tasks_reused, 0u);
}

TEST(MpsocBatch, RepeatedClusteringReusesEverything) {
    taskgraph::TaskGraph g = taskgraph::paper_synthetic_graph();
    taskgraph::Clustering c = taskgraph::linear_clustering(g);
    MpsocPrep prep(g, MpsocParams{});
    MpsocBatch batch(prep);
    MpsocResult first = batch.evaluate(c);
    MpsocResult again = batch.evaluate(c);
    expect_same_result(first, again);
    // Identical candidate: full schedule replay.
    EXPECT_EQ(batch.stats().prefix_tasks_reused, g.task_count());
}

TEST(MpsocBatch, BreakChainForcesFullScanSameResult) {
    taskgraph::TaskGraph g = taskgraph::fork_join_graph(4, 2, 1.0, 4.0);
    taskgraph::Clustering a = taskgraph::round_robin_clustering(g, 3);
    taskgraph::Clustering b = taskgraph::round_robin_clustering(g, 2);
    MpsocPrep prep(g, MpsocParams{});
    MpsocBatch chained(prep);
    (void)chained.evaluate(a);
    MpsocResult with_chain = chained.evaluate(b);
    MpsocBatch broken(prep);
    (void)broken.evaluate(a);
    broken.break_chain();
    MpsocResult without_chain = broken.evaluate(b);
    expect_same_result(with_chain, without_chain);
    EXPECT_EQ(broken.stats().prefix_tasks_reused, 0u);
}

TEST(MpsocBatch, PointToPointBusMatchesOneShot) {
    taskgraph::TaskGraph g = taskgraph::fork_join_graph(4, 1, 1.0, 10.0);
    taskgraph::Clustering c = taskgraph::round_robin_clustering(g, 4);
    MpsocParams ideal;
    ideal.shared_bus = false;
    MpsocPrep prep(g, ideal);
    MpsocBatch batch(prep);
    (void)batch.evaluate(taskgraph::single_cluster(g));  // build a chain
    expect_same_result(batch.evaluate(c), simulate_mpsoc(g, c, ideal));
}

TEST(MpsocBatch, MergedClusteringMatchesOneShot) {
    // merge() renumbers ids, so consecutive candidates can relabel every
    // cluster without changing membership much — the diff must stay exact.
    taskgraph::TaskGraph g = taskgraph::chain_graph(4, 1.0, 2.0);
    MpsocPrep prep(g, MpsocParams{});
    MpsocBatch batch(prep);
    taskgraph::Clustering c(4);  // discrete: ids 0,1,2,3
    expect_same_result(batch.evaluate(c), simulate_mpsoc(g, c));
    c.merge(1, 2);  // ids renumber densely
    expect_same_result(batch.evaluate(c), simulate_mpsoc(g, c));
    c.merge(0, 3);
    expect_same_result(batch.evaluate(c), simulate_mpsoc(g, c));
}

TEST(MpsocBatch, MismatchedClusteringRejected) {
    taskgraph::TaskGraph g = taskgraph::chain_graph(3, 1.0, 1.0);
    MpsocPrep prep(g, MpsocParams{});
    MpsocBatch batch(prep);
    taskgraph::Clustering wrong(5);
    EXPECT_THROW(batch.evaluate(wrong), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The two simulation backends (sim/backend.hpp).

TEST(SimBackend, NamesListBuiltinsInOrder) {
    EXPECT_EQ(backend_name(Backend::DynamicFifo), "dynamic-fifo");
    EXPECT_EQ(backend_name(Backend::Analytic), "analytic");
    EXPECT_EQ(find_backend("dynamic-fifo"), Backend::DynamicFifo);
    EXPECT_EQ(find_backend("analytic"), Backend::Analytic);
    EXPECT_EQ(backend_or_throw(""), Backend::DynamicFifo);
    EXPECT_EQ(find_backend("no-such-engine"), std::nullopt);
    EXPECT_THROW(backend_or_throw("no-such-engine"), std::invalid_argument);
    // The removed static-schedule backend has no alias.
    EXPECT_EQ(find_backend("sdf"), std::nullopt);
    EXPECT_EQ(unknown_backend_message("sdf"),
              "unknown simulation backend 'sdf' (known: dynamic-fifo, "
              "analytic)");
}

TEST(SimBackend, PrefixResumeStaysBitwiseOnNeighborChain) {
    // Walk single-task moves through one dynamic-fifo evaluator: the
    // prefix-resume layer must engage (reused positions > 0) without ever
    // diverging from the history-free one-shot oracle.
    taskgraph::TaskGraph g = taskgraph::chain_graph(8, 1.5, 3.0);
    MpsocPrep prep(g, MpsocParams{});
    MpsocBatch evaluator(prep, backend_or_throw("dynamic-fifo"));
    std::vector<int> assign(8, 0);
    for (std::size_t t = 4; t < 8; ++t) assign[t] = 1;
    for (std::size_t move = 7; move >= 5; --move) {
        taskgraph::Clustering c = taskgraph::Clustering::from_assignment(assign);
        expect_same_result(evaluator.evaluate(c), simulate_mpsoc(g, c));
        assign[move] = 0;
    }
    EXPECT_GT(evaluator.stats().prefix_tasks_reused, 0u);
    // break_chain() forgets history but not correctness.
    evaluator.break_chain();
    taskgraph::Clustering c = taskgraph::Clustering::from_assignment(assign);
    expect_same_result(evaluator.evaluate(c), simulate_mpsoc(g, c));
}

TEST(SimBackend, AnalyticIsDeterministicLowerBound) {
    taskgraph::TaskGraph g = taskgraph::fork_join_graph(4, 2, 3.0, 8.0);
    MpsocPrep prep(g, MpsocParams{});
    taskgraph::Clustering linear = taskgraph::linear_clustering(g);
    MpsocBatch analytic(prep, backend_or_throw("analytic"));
    MpsocResult bound = analytic.evaluate(linear);
    MpsocResult reference = simulate_mpsoc(g, linear);
    EXPECT_LE(bound.makespan, reference.makespan);
    EXPECT_GT(bound.makespan, 0.0);
    // The clustering-derived aggregates are exact either way.
    EXPECT_EQ(bound.inter_traffic, reference.inter_traffic);
    EXPECT_EQ(bound.bus_busy, reference.bus_busy);
    EXPECT_EQ(bound.cpu_busy, reference.cpu_busy);
    // Deterministic: the same candidate prices identically every time, on
    // a fresh evaluator and on the one that priced it before.
    EXPECT_EQ(MpsocBatch(prep, Backend::Analytic).evaluate(linear).makespan,
              bound.makespan);
    EXPECT_EQ(analytic.evaluate(linear).makespan, bound.makespan);
    // No reuse layer: the bound never reports replayed positions.
    EXPECT_EQ(analytic.stats().prefix_tasks_reused, 0u);
}

TEST(SimBackend, SimulateBackendConvenienceMatchesOneShot) {
    taskgraph::TaskGraph g = taskgraph::fork_join_graph(2, 2, 1.0, 4.0);
    taskgraph::Clustering linear = taskgraph::linear_clustering(g);
    expect_same_result(
        simulate_backend(g, linear, MpsocParams{}, "dynamic-fifo"),
        simulate_mpsoc(g, linear));
    expect_same_result(simulate_backend(g, linear, MpsocParams{}, ""),
                       simulate_mpsoc(g, linear));
    EXPECT_THROW(simulate_backend(g, linear, MpsocParams{}, "bogus"),
                 std::invalid_argument);
    EXPECT_THROW(simulate_backend(g, linear, MpsocParams{}, "sdf"),
                 std::invalid_argument);
    MpsocPrep prep(g, MpsocParams{});
    expect_same_result(simulate_backend(g, linear, MpsocParams{}, "analytic"),
                       MpsocBatch(prep, Backend::Analytic).evaluate(linear));
}

}  // namespace
