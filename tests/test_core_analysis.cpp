// Tests for the core analyses: communication extraction (§4.1 conventions),
// task-graph mining and thread allocation (§4.2.3).
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "campaign/corpus.hpp"
#include "cases/cases.hpp"
#include "core/allocation.hpp"
#include "core/comm.hpp"
#include "taskgraph/generate.hpp"
#include "uml/builder.hpp"

namespace {

using namespace uhcg;
using namespace uhcg::core;

uml::Model two_thread_model() {
    uml::ModelBuilder b("two");
    b.thread("P");
    b.thread("C");
    b.iodevice("Dev");
    auto sd = b.seq("sd");
    sd.message("P", "Dev", "getSample").result("raw");
    sd.message("P", "C", "SetRaw").arg("raw").data(16);
    sd.message("C", "P", "GetStatus").result("status").data(4);
    sd.message("C", "Dev", "setOut").arg("raw");
    return b.take();
}

TEST(CommAnalysis, SetCreatesForwardChannel) {
    uml::Model m = two_thread_model();
    CommModel comm = analyze_communication(m);
    const uml::ObjectInstance* p = m.find_object("P");
    const uml::ObjectInstance* c = m.find_object("C");
    // SetRaw: P → C carrying "raw".
    EXPECT_TRUE(comm.must_produce(*p, "raw"));
    EXPECT_TRUE(comm.receives(*c, "raw"));
    // Per-channel size is preserved on the channel record itself.
    for (const Channel& ch : comm.channels()) {
        if (ch.variable == "raw") {
            EXPECT_DOUBLE_EQ(ch.data_size, 16.0);
        }
    }
}

TEST(CommAnalysis, GetReversesDirection) {
    uml::Model m = two_thread_model();
    CommModel comm = analyze_communication(m);
    const uml::ObjectInstance* p = m.find_object("P");
    const uml::ObjectInstance* c = m.find_object("C");
    // GetStatus invoked by C on P: data flows P → C.
    EXPECT_TRUE(comm.must_produce(*p, "status"));
    EXPECT_TRUE(comm.receives(*c, "status"));
    EXPECT_DOUBLE_EQ(comm.traffic(*p, *c), 20.0);  // 16 + 4
    EXPECT_DOUBLE_EQ(comm.traffic(*c, *p), 0.0);
}

TEST(CommAnalysis, IoAccessesClassified) {
    uml::Model m = two_thread_model();
    CommModel comm = analyze_communication(m);
    const uml::ObjectInstance* p = m.find_object("P");
    const uml::ObjectInstance* c = m.find_object("C");
    auto p_in = comm.io_inputs(*p);
    ASSERT_EQ(p_in.size(), 1u);
    EXPECT_EQ(p_in[0]->variable, "raw");
    EXPECT_TRUE(p_in[0]->is_input);
    auto c_out = comm.io_outputs(*c);
    ASSERT_EQ(c_out.size(), 1u);
    EXPECT_EQ(c_out[0]->variable, "raw");
    EXPECT_TRUE(comm.io_outputs(*p).empty());
}

TEST(CommAnalysis, IncomingOutgoingViews) {
    uml::Model m = two_thread_model();
    CommModel comm = analyze_communication(m);
    const uml::ObjectInstance* p = m.find_object("P");
    const uml::ObjectInstance* c = m.find_object("C");
    EXPECT_EQ(comm.outgoing(*p).size(), 2u);  // raw + status
    EXPECT_EQ(comm.incoming(*c).size(), 2u);
    EXPECT_EQ(comm.incoming(*p).size(), 0u);
}

TEST(CommAnalysis, NonConformingMessagesIgnored) {
    uml::ModelBuilder b("x");
    b.thread("A");
    b.thread("B");
    auto sd = b.seq("sd");
    sd.message("A", "B", "weird").arg("v");             // no Set/Get prefix
    sd.message("A", "B", "GetThing");                   // Get without result
    sd.message("A", "B", "SetThing");                   // Set without args
    CommModel comm = analyze_communication(b.model());
    EXPECT_TRUE(comm.channels().empty());
}

TEST(CommAnalysis, CraneChannels) {
    uml::Model crane = cases::crane_model();
    CommModel comm = analyze_communication(crane);
    EXPECT_EQ(comm.channels().size(), 4u);  // xc, alpha, pos_f, F
    EXPECT_EQ(comm.io_accesses().size(), 1u);  // display write
}

// Every per-thread query of the index answers what a scan of all channels
// and accesses answers, in the same order; links() is the first channel
// of each (producer name, consumer name, variable) tuple.
TEST(CommAnalysis, IndexedQueriesMatchAScan) {
    campaign::CorpusOptions synth;
    synth.seed = 7;
    synth.min_threads = synth.max_threads = 40;
    synth.feedback_cycles = 1;
    synth.models = 1;
    std::vector<uml::Model> models;
    models.push_back(campaign::synth_model(synth, 0));
    models.push_back(cases::crane_model());
    models.push_back(cases::mixed_model());
    models.push_back(two_thread_model());
    for (const uml::Model& m : models) {
        SCOPED_TRACE(m.name());
        CommModel comm = analyze_communication(m);
        std::set<std::string> vars{"no-such-variable"};
        for (const Channel& c : comm.channels()) vars.insert(c.variable);

        std::vector<const Channel*> links;
        std::set<std::tuple<std::string, std::string, std::string>> seen;
        for (const Channel& c : comm.channels())
            if (seen.emplace(c.producer->name(), c.consumer->name(), c.variable)
                    .second)
                links.push_back(&c);
        EXPECT_EQ(comm.links(), links);

        for (const uml::ObjectInstance* t : m.threads()) {
            std::vector<const Channel*> in, out;
            for (const Channel& c : comm.channels()) {
                if (c.consumer == t) in.push_back(&c);
                if (c.producer == t) out.push_back(&c);
            }
            EXPECT_EQ(comm.incoming(*t), in) << t->name();
            EXPECT_EQ(comm.outgoing(*t), out) << t->name();
            for (const std::string& v : vars) {
                auto carries = [&](const std::vector<const Channel*>& cs) {
                    for (const Channel* c : cs)
                        if (c->variable == v) return true;
                    return false;
                };
                EXPECT_EQ(comm.receives(*t, v), carries(in)) << t->name() << ' ' << v;
                EXPECT_EQ(comm.must_produce(*t, v), carries(out))
                    << t->name() << ' ' << v;
            }
            std::vector<const IoAccess*> io_in, io_out;
            for (const IoAccess& a : comm.io_accesses())
                if (a.thread == t) (a.is_input ? io_in : io_out).push_back(&a);
            EXPECT_EQ(comm.io_inputs(*t), io_in) << t->name();
            EXPECT_EQ(comm.io_outputs(*t), io_out) << t->name();
            for (const uml::ObjectInstance* u : m.threads()) {
                double sum = 0.0;
                for (const Channel* c : out)
                    if (c->consumer == u) sum += c->data_size;
                EXPECT_EQ(comm.traffic(*t, *u), sum);
            }
        }
    }
    // A default CommModel is empty and answers every query.
    CommModel empty;
    const uml::Model& m = models.back();
    EXPECT_TRUE(empty.links().empty());
    EXPECT_TRUE(empty.outgoing(*m.threads().front()).empty());
    EXPECT_FALSE(empty.receives(*m.threads().front(), "raw"));
}

// --- task graph mining ----------------------------------------------------------

TEST(TaskGraphMining, NodesAreThreadsEdgesAreTraffic) {
    uml::Model m = two_thread_model();
    CommModel comm = analyze_communication(m);
    taskgraph::TaskGraph g = build_task_graph(m, comm);
    EXPECT_EQ(g.task_count(), 2u);
    auto p = g.find("P");
    auto c = g.find("C");
    ASSERT_TRUE(p && c);
    // Both channels flow P → C and merge into one edge of cost 20.
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_DOUBLE_EQ(g.edge_cost(*p, *c), 20.0);
}

TEST(TaskGraphMining, SyntheticMatchesPaperGraph) {
    uml::Model syn = cases::synthetic_model();
    CommModel comm = analyze_communication(syn);
    taskgraph::TaskGraph mined = build_task_graph(syn, comm);
    taskgraph::TaskGraph reference = taskgraph::paper_synthetic_graph();
    ASSERT_EQ(mined.task_count(), reference.task_count());
    ASSERT_EQ(mined.edge_count(), reference.edge_count());
    for (const taskgraph::Edge& e : reference.edges()) {
        auto from = mined.find(reference.name(e.from));
        auto to = mined.find(reference.name(e.to));
        ASSERT_TRUE(from && to);
        EXPECT_DOUBLE_EQ(mined.edge_cost(*from, *to), e.cost)
            << reference.name(e.from) << " -> " << reference.name(e.to);
    }
}

// --- allocation ------------------------------------------------------------------

TEST(Allocation, ManualAssignment) {
    uml::Model m = two_thread_model();
    Allocation a;
    std::size_t cpu = a.add_processor("CPU1");
    a.assign(*m.find_object("P"), cpu);
    EXPECT_TRUE(a.is_assigned(*m.find_object("P")));
    EXPECT_FALSE(a.is_assigned(*m.find_object("C")));
    EXPECT_EQ(a.processor_of(*m.find_object("P")), cpu);
    EXPECT_THROW(a.processor_of(*m.find_object("C")), std::out_of_range);
    EXPECT_THROW(a.assign(*m.find_object("P"), cpu), std::invalid_argument);
    EXPECT_THROW(a.assign(*m.find_object("C"), 7), std::out_of_range);
}

TEST(Allocation, FromDeploymentDiagram) {
    uml::Model didactic = cases::didactic_model();
    Allocation a = allocation_from_deployment(didactic);
    EXPECT_EQ(a.processor_count(), 2u);
    EXPECT_EQ(a.processor_name(0), "CPU1");
    EXPECT_TRUE(a.same_processor(*didactic.find_object("T1"),
                                 *didactic.find_object("T2")));
    EXPECT_FALSE(a.same_processor(*didactic.find_object("T1"),
                                  *didactic.find_object("T3")));
    EXPECT_EQ(a.threads_on(0).size(), 2u);
}

TEST(Allocation, MissingDeploymentThrows) {
    uml::Model syn = cases::synthetic_model();  // no deployment diagram
    EXPECT_THROW(allocation_from_deployment(syn), std::runtime_error);
}

TEST(Allocation, UndeployedThreadThrows) {
    uml::ModelBuilder b("m");
    b.thread("T1");
    b.thread("Orphan");
    b.cpu("CPU1");
    b.deploy("T1", "CPU1");
    EXPECT_THROW(allocation_from_deployment(b.model()), std::runtime_error);
}

TEST(Allocation, AutoMatchesFig7) {
    uml::Model syn = cases::synthetic_model();
    CommModel comm = analyze_communication(syn);
    Allocation a = auto_allocate(syn, comm);
    EXPECT_EQ(a.processor_count(), 4u);
    auto on = [&](const char* t) { return a.processor_of(*syn.find_object(t)); };
    EXPECT_EQ(on("A"), on("J"));
    EXPECT_EQ(on("E"), on("I"));
    EXPECT_EQ(on("G"), on("M"));
    EXPECT_EQ(on("H"), on("L"));
    EXPECT_NE(on("A"), on("E"));
}

TEST(Allocation, AutoRespectsProcessorBudget) {
    uml::Model syn = cases::synthetic_model();
    CommModel comm = analyze_communication(syn);
    Allocation a = auto_allocate(syn, comm, 2);
    EXPECT_LE(a.processor_count(), 2u);
    for (const uml::ObjectInstance* t : syn.threads())
        EXPECT_TRUE(a.is_assigned(*t));
}

TEST(Allocation, AutoClusteringExposedForBenches) {
    uml::Model syn = cases::synthetic_model();
    CommModel comm = analyze_communication(syn);
    taskgraph::Clustering c = auto_clustering(syn, comm);
    EXPECT_EQ(c.cluster_count(), 4);
    EXPECT_TRUE(
        taskgraph::is_linear(build_task_graph(syn, comm), c));
}

}  // namespace
