// Unit tests for the reflective model layer: metamodel declarations, typed
// objects, conformance validation and E-core XML interchange.
#include <gtest/gtest.h>

#include <functional>
#include <latch>
#include <thread>

#include "model/ecore_io.hpp"
#include "model/metamodel.hpp"
#include "model/object.hpp"
#include "model/validate.hpp"
#include "obs/obs.hpp"
#include "simulink/generic.hpp"

namespace {

using namespace uhcg::model;

Metamodel tiny_metamodel() {
    Metamodel mm("Tiny");
    auto& node = mm.add_class("Node");
    node.add_attribute({"name", AttrType::String, {}, std::nullopt});
    node.add_attribute({"weight", AttrType::Real, {}, "1"});
    node.add_attribute({"kind", AttrType::Enum, {"a", "b"}, "a"});
    node.add_reference({"children", "Node", true, true, false});
    node.add_reference({"next", "Node", false, false, false});
    auto& special = mm.add_class("Special");
    special.set_super("Node");
    special.add_attribute({"extra", AttrType::Int, {}, "0"});
    return mm;
}

TEST(Metamodel, ClassLookup) {
    Metamodel mm = tiny_metamodel();
    EXPECT_NE(mm.find_class("Node"), nullptr);
    EXPECT_EQ(mm.find_class("Missing"), nullptr);
    EXPECT_THROW(mm.get_class("Missing"), std::out_of_range);
    EXPECT_EQ(mm.classes().size(), 2u);
}

TEST(Metamodel, DuplicateClassThrows) {
    Metamodel mm("M");
    mm.add_class("X");
    EXPECT_THROW(mm.add_class("X"), std::invalid_argument);
}

TEST(Metamodel, InheritanceResolvesFeatures) {
    Metamodel mm = tiny_metamodel();
    const MetaClass& special = mm.get_class("Special");
    EXPECT_NE(special.find_attribute("name"), nullptr);   // inherited
    EXPECT_NE(special.find_attribute("extra"), nullptr);  // own
    EXPECT_NE(special.find_reference("children"), nullptr);
    EXPECT_TRUE(special.conforms_to(mm.get_class("Node")));
    EXPECT_FALSE(mm.get_class("Node").conforms_to(special));
}

TEST(Metamodel, AllFeaturesSupersFirst) {
    Metamodel mm = tiny_metamodel();
    auto attrs = mm.get_class("Special").all_attributes();
    ASSERT_EQ(attrs.size(), 4u);
    EXPECT_EQ(attrs.front()->name, "name");
    EXPECT_EQ(attrs.back()->name, "extra");
}

TEST(Metamodel, CheckFindsProblems) {
    Metamodel mm("Bad");
    auto& a = mm.add_class("A");
    a.add_attribute({"e", AttrType::Enum, {}, std::nullopt});  // no literals
    a.add_reference({"r", "Nowhere", false, false, false});    // bad target
    auto& b = mm.add_class("B");
    b.set_super("B");  // self cycle
    auto problems = mm.check();
    EXPECT_EQ(problems.size(), 3u);
}

TEST(Metamodel, CheckPassesOnGoodModel) {
    EXPECT_TRUE(tiny_metamodel().check().empty());
}

// --- objects -------------------------------------------------------------------

class ObjectTest : public ::testing::Test {
protected:
    Metamodel mm = tiny_metamodel();
    ObjectModel m{mm};
};

TEST_F(ObjectTest, CreateAndFind) {
    Object& o = m.create("Node", "n1");
    EXPECT_EQ(m.find("n1"), &o);
    EXPECT_EQ(m.find("n2"), nullptr);
    EXPECT_THROW(m.create("Node", "n1"), std::invalid_argument);
    EXPECT_THROW(m.create("Missing"), std::out_of_range);
}

TEST_F(ObjectTest, GeneratedIdsAreUnique) {
    Object& a = m.create("Node");
    Object& b = m.create("Node");
    EXPECT_NE(a.id(), b.id());
}

TEST_F(ObjectTest, AttributeTypeChecking) {
    Object& o = m.create("Node");
    o.set("name", std::string("x"));
    EXPECT_THROW(o.set("name", true), std::invalid_argument);
    EXPECT_THROW(o.set("nosuch", std::string("v")), std::invalid_argument);
    o.set("weight", std::int64_t{3});  // int widens to real
    EXPECT_DOUBLE_EQ(o.get_real("weight"), 3.0);
}

TEST_F(ObjectTest, EnumLiteralsValidated) {
    Object& o = m.create("Node");
    o.set("kind", std::string("b"));
    EXPECT_THROW(o.set("kind", std::string("zzz")), std::invalid_argument);
    EXPECT_EQ(o.get_string("kind"), "b");
}

TEST_F(ObjectTest, DefaultsAndMissing) {
    Object& o = m.create("Node");
    EXPECT_DOUBLE_EQ(o.get_real("weight"), 1.0);  // declared default
    EXPECT_FALSE(o.has("weight"));
    EXPECT_THROW(o.get("name"), std::out_of_range);  // required, unset
}

TEST_F(ObjectTest, ContainmentReparenting) {
    Object& parent = m.create("Node", "p");
    Object& child = m.create("Node", "c");
    parent.add_ref("children", child);
    EXPECT_EQ(child.parent(), &parent);
    ASSERT_NE(child.containing_feature(), nullptr);
    EXPECT_EQ(child.containing_feature()->name, "children");
    // Already contained elsewhere: rejected.
    Object& other = m.create("Node", "o");
    EXPECT_THROW(other.add_ref("children", child), std::invalid_argument);
    parent.remove_ref("children", child);
    EXPECT_EQ(child.parent(), nullptr);
}

TEST_F(ObjectTest, SingleReferenceRules) {
    Object& a = m.create("Node", "a");
    Object& b = m.create("Node", "b");
    Object& c = m.create("Node", "c");
    a.set_ref("next", &b);
    EXPECT_EQ(a.ref("next"), &b);
    EXPECT_THROW(a.add_ref("next", c), std::invalid_argument);  // single-valued
    a.set_ref("next", &c);  // replace
    EXPECT_EQ(a.ref("next"), &c);
    a.set_ref("next", nullptr);
    EXPECT_EQ(a.ref("next"), nullptr);
}

TEST_F(ObjectTest, TypeConformanceOnReferences) {
    Object& a = m.create("Node", "a");
    Object& s = m.create("Special", "s");
    a.add_ref("children", s);  // Special conforms to Node
    EXPECT_EQ(s.parent(), &a);
}

TEST_F(ObjectTest, RootsAndAllOf) {
    Object& a = m.create("Node", "a");
    Object& b = m.create("Special", "b");
    a.add_ref("children", b);
    EXPECT_EQ(m.roots().size(), 1u);
    EXPECT_EQ(m.all_of("Node").size(), 2u);    // conformance included
    EXPECT_EQ(m.all_of("Special").size(), 1u);
    EXPECT_TRUE(b.is_a("Node"));
}

TEST_F(ObjectTest, MoveReanchorsOwnership) {
    Object& a = m.create("Node", "a");
    a.set("name", std::string("x"));
    ObjectModel moved = std::move(m);
    // The moved-to model can keep creating and validating objects.
    Object& b = moved.create("Node", "b");
    b.set("name", std::string("y"));
    EXPECT_TRUE(moved.find("a")->is_a("Node"));
}

// --- slot layout ------------------------------------------------------------------

/// The `what()` of the exception `f` throws, which must be of type E.
template <typename E>
std::string thrown(const std::function<void()>& f) {
    try {
        f();
    } catch (const E& e) {
        return e.what();
    } catch (const std::exception& e) {
        return std::string("wrong exception type: ") + e.what();
    }
    return "no exception";
}

TEST_F(ObjectTest, ErrorTextsArePinned) {
    Metamodel bad("Bad");
    auto& holder = bad.add_class("Holder");
    holder.add_attribute({"count", AttrType::Int, {}, "zz"});
    holder.add_reference({"other", "Other", false, true, false});
    bad.add_class("Abstract").set_abstract(true);
    bad.add_class("Other");
    ObjectModel bm(bad);
    Object& h = bm.create("Holder", "h");
    Object& x = bm.create("Other", "x");

    Object& a = m.create("Node", "a");
    Object& b = m.create("Node", "b");
    Object& c = m.create("Node", "c");
    using IA = std::invalid_argument;
    using OOR = std::out_of_range;
    EXPECT_EQ(thrown<IA>([&] { a.set("nosuch", std::string("v")); }),
              "class Node has no attribute 'nosuch'");
    EXPECT_EQ(thrown<IA>([&] { a.set("name", true); }),
              "type mismatch setting Node.name");
    EXPECT_EQ(thrown<IA>([&] { a.set("kind", std::string("zzz")); }),
              "'zzz' is not a literal of enum Node.kind");
    EXPECT_EQ(thrown<OOR>([&] { a.get("nosuch"); }),
              "class Node has no attribute 'nosuch'");
    EXPECT_EQ(thrown<OOR>([&] { a.get("name"); }),
              "attribute Node.name of object 'a' is unset and has no default");
    // The default is parsed once; every read rethrows its error.
    EXPECT_EQ(thrown<IA>([&] { h.get("count"); }), "cannot parse 'zz' as int");
    EXPECT_EQ(thrown<IA>([&] { h.get("count"); }), "cannot parse 'zz' as int");
    EXPECT_EQ(thrown<IA>([&] { a.refs("nosuch"); }),
              "class Node has no reference 'nosuch'");
    EXPECT_EQ(thrown<IA>([&] { a.add_ref("nosuch", b); }),
              "class Node has no reference 'nosuch'");
    EXPECT_EQ(thrown<IA>([&] { a.clear_ref("nosuch"); }),
              "class Node has no reference 'nosuch'");
    EXPECT_EQ(thrown<IA>([&] { a.remove_ref("nosuch", b); }),
              "class Node has no reference 'nosuch'");
    EXPECT_EQ(thrown<IA>([&] { a.set_ref("nosuch", nullptr); }),
              "class Node has no reference 'nosuch'");
    EXPECT_EQ(thrown<IA>([&] { h.add_ref("other", h); }),
              "object of class Holder cannot be referenced by Holder.other "
              "(expects Other)");
    EXPECT_EQ(thrown<IA>([&] {
                  a.add_ref("next", b);
                  a.add_ref("next", c);
              }),
              "reference Node.next is single-valued and already set");
    EXPECT_EQ(thrown<IA>([&] {
                  a.add_ref("children", b);
                  c.add_ref("children", b);
              }),
              "object 'b' is already contained elsewhere");
    EXPECT_EQ(thrown<IA>([&] { bm.create("Abstract"); }),
              "cannot instantiate abstract class Abstract");
    EXPECT_EQ(thrown<IA>([&] { m.create("Node", "a"); }), "duplicate object id: a");
    EXPECT_EQ(thrown<OOR>([&] { m.create("Missing"); }),
              "metamodel 'Tiny' has no class 'Missing'");
    EXPECT_EQ(thrown<IA>([&] { value_from_string(AttrType::Bool, "maybe"); }),
              "cannot parse 'maybe' as bool");
    EXPECT_FALSE(a.has("nosuch"));  // a query, not an error
    h.add_ref("other", x);
    EXPECT_EQ(h.refs("other").size(), 1u);
}

TEST_F(ObjectTest, SlotReferencesSurviveLaterCreates) {
    Object& a = m.create("Node", "a");
    a.set("name", std::string("a name longer than any small-string buffer"));
    Object& child = m.create("Node", "child");
    a.add_ref("children", child);
    const std::string& name = a.get_string("name");
    const std::string& kind = a.get_string("kind");  // declared default
    const std::vector<Object*>& children = a.refs("children");
    const std::string* id = &child.id();
    for (int i = 0; i < 10000; ++i) m.create(i % 2 ? "Node" : "Special");
    EXPECT_EQ(name, "a name longer than any small-string buffer");
    EXPECT_EQ(kind, "a");
    ASSERT_EQ(children.size(), 1u);
    EXPECT_EQ(children.front(), &child);
    EXPECT_EQ(&m.find("child")->id(), id);
    EXPECT_EQ(&a.get_string("name"), &name);
}

TEST_F(ObjectTest, FindWorksAfterMove) {
    const std::string short_id = "s";
    const std::string long_id(64, 'L');
    Object& s = m.create("Node", short_id);
    Object& l = m.create("Special", long_id);
    ObjectModel moved = std::move(m);
    EXPECT_EQ(moved.find(short_id), &s);
    EXPECT_EQ(moved.find(long_id), &l);
    ObjectModel assigned(mm);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.find(short_id), &s);
    EXPECT_EQ(assigned.find(long_id), &l);
    EXPECT_EQ(assigned.find(long_id.substr(1)), nullptr);
    EXPECT_THROW(assigned.create("Node", long_id), std::invalid_argument);
    Object& fresh = assigned.create("Node", std::string(40, 'F'));
    EXPECT_EQ(assigned.find(std::string(40, 'F')), &fresh);
    EXPECT_EQ(assigned.size(), 3u);
}

// The flat id table across many growths: every id stays findable, and a
// miss stays a miss.
TEST_F(ObjectTest, HundredThousandCreatesThenFindEach) {
    constexpr int kCount = 100000;
    std::vector<Object*> created;
    created.reserve(kCount);
    for (int i = 0; i < kCount; ++i)
        created.push_back(&m.create("Node", "node" + std::to_string(i)));
    ASSERT_EQ(m.size(), static_cast<std::size_t>(kCount));
    for (int i = 0; i < kCount; ++i)
        ASSERT_EQ(m.find("node" + std::to_string(i)), created[i]) << i;
    EXPECT_EQ(m.find("node" + std::to_string(kCount)), nullptr);
    EXPECT_EQ(m.find(""), nullptr);
}

TEST_F(ObjectTest, GeneratedIdsSkipExplicitOnes) {
    Object& explicit_seven = m.create("Node", "_7");
    std::vector<std::string> ids;
    for (int i = 0; i < 8; ++i) ids.push_back(m.create("Node").id());
    EXPECT_EQ(ids, (std::vector<std::string>{"_1", "_2", "_3", "_4", "_5", "_6",
                                             "_8", "_9"}));
    EXPECT_EQ(m.find("_7"), &explicit_seven);
    EXPECT_EQ(m.size(), 9u);
}

TEST_F(ObjectTest, FailedDuplicateCreateChangesNothing) {
    Object& a = m.create("Node", "a");
    for (int i = 0; i < 6; ++i) m.create("Node");  // next create would grow
    const std::size_t before = m.size();
    EXPECT_THROW(m.create("Special", "a"), std::invalid_argument);
    EXPECT_EQ(m.size(), before);
    EXPECT_EQ(m.find("a"), &a);
    EXPECT_TRUE(m.find("a")->meta().name() == "Node");
    EXPECT_EQ(m.all_of("Special").size(), 0u);
    EXPECT_EQ(m.create("Node").id(), "_7");
}

TEST_F(ObjectTest, IdProbesCountedOncePerModel) {
    uhcg::obs::Counter& probes = uhcg::obs::counter("model.id_probes");
    const std::uint64_t before = probes.value();
    {
        ObjectModel local(mm);
        local.create("Node", "x");
        EXPECT_NE(local.find("x"), nullptr);
        ObjectModel moved = std::move(local);
        EXPECT_EQ(probes.value(), before);  // nothing reported mid-life
    }
    // One slot per create and one per find on a near-empty table.
    EXPECT_EQ(probes.value() - before, 2u);
}

TEST(Layout, SlotAndContainmentOrderAcrossThreeLevels) {
    Metamodel mm("Chain");
    auto& base = mm.add_class("Base");
    base.add_attribute({"b1", AttrType::String, {}, "x"});
    base.add_reference({"bkids", "Base", true, true, false});
    base.add_reference({"blink", "Base", false, false, false});
    auto& mid = mm.add_class("Mid");
    mid.set_super("Base");
    mid.add_attribute({"m1", AttrType::Int, {}, "2"});
    mid.add_reference({"mkids", "Base", true, true, false});
    auto& leaf = mm.add_class("Leaf");
    leaf.set_super("Mid");
    leaf.add_attribute({"l1", AttrType::Bool, {}, "true"});
    leaf.add_attribute({"l2", AttrType::Real, {}, "0.5"});
    leaf.add_reference({"lkids", "Base", true, true, false});

    const MetaClass& cls = mm.get_class("Leaf");
    std::vector<std::string> attrs, refs;
    for (const MetaAttribute* a : cls.all_attributes()) attrs.push_back(a->name);
    for (const MetaReference* r : cls.all_references()) refs.push_back(r->name);
    EXPECT_EQ(attrs, (std::vector<std::string>{"b1", "m1", "l1", "l2"}));
    EXPECT_EQ(refs, (std::vector<std::string>{"bkids", "blink", "mkids", "lkids"}));
    EXPECT_EQ(cls.attribute_index("l2"), 3u);
    EXPECT_EQ(cls.reference_index("mkids"), 2u);
    EXPECT_EQ(cls.attribute_index("nosuch"), MetaClass::npos);
    EXPECT_EQ(cls.super(), &mm.get_class("Mid"));
    EXPECT_EQ(cls.super()->super(), &mm.get_class("Base"));
    EXPECT_EQ(cls.reference_target(3), &mm.get_class("Base"));
    EXPECT_TRUE(cls.conforms_to(mm.get_class("Base")));
    EXPECT_FALSE(mm.get_class("Mid").conforms_to(cls));

    ObjectModel m(mm);
    Object& root = m.create("Leaf", "root");
    EXPECT_EQ(root.get_string("b1"), "x");
    EXPECT_EQ(root.get_int("m1"), 2);
    EXPECT_TRUE(root.get_bool("l1"));
    EXPECT_DOUBLE_EQ(root.get_real("l2"), 0.5);
    root.set("m1", std::int64_t{5});
    EXPECT_EQ(root.get_int("m1"), 5);
    EXPECT_FALSE(root.has("b1"));
    // Children added in an order unlike the references' declaration order.
    Object& l = m.create("Base", "l");
    Object& mk = m.create("Mid", "mk");
    Object& b = m.create("Base", "b");
    Object& b2 = m.create("Leaf", "b2");
    root.add_ref("lkids", l);
    root.add_ref("mkids", mk);
    root.add_ref("bkids", b);
    root.add_ref("bkids", b2);
    root.set_ref("blink", &l);
    std::vector<std::string> contained;
    for (const Object* o : root.contained()) contained.push_back(o->id());
    EXPECT_EQ(contained, (std::vector<std::string>{"b", "b2", "mk", "l"}));
    EXPECT_EQ(b2.containing_feature(), cls.find_reference("bkids"));
    EXPECT_EQ(mk.containing_feature(), cls.find_reference("mkids"));
    EXPECT_EQ(root.containing_feature(), nullptr);
    EXPECT_EQ(m.all_of("Mid").size(), 3u);  // root, mk, b2
    EXPECT_EQ(m.all_of("Base").size(), 5u);
    EXPECT_EQ(m.all_of("Nowhere").size(), 0u);
    root.clear_ref("bkids");
    EXPECT_EQ(b.parent(), nullptr);
    EXPECT_EQ(b2.containing_feature(), nullptr);
    EXPECT_EQ(root.contained().size(), 2u);
}

TEST(Layout, ClassesFreezeAtFirstObject) {
    Metamodel mm("Freeze");
    auto& base = mm.add_class("Base");
    base.add_attribute({"a", AttrType::Int, {}, "0"});
    auto& sub = mm.add_class("Sub");
    sub.set_super("Base");
    auto& other = mm.add_class("Other");
    other.add_attribute({"o", AttrType::Int, {}, "0"});
    other.add_attribute({"o2", AttrType::Int, {}, "0"});  // still open

    ObjectModel m(mm);
    m.create("Sub");  // builds Sub's layout, and Base's beneath it
    EXPECT_THROW(sub.add_attribute({"s", AttrType::Int, {}, "0"}), std::logic_error);
    EXPECT_THROW(sub.add_reference({"r", "Base", false, false, false}),
                 std::logic_error);
    EXPECT_THROW(sub.set_super("Other"), std::logic_error);
    EXPECT_THROW(sub.set_abstract(true), std::logic_error);
    EXPECT_THROW(base.add_attribute({"b", AttrType::Int, {}, "0"}), std::logic_error);
    EXPECT_THROW(mm.add_class("Late"), std::logic_error);
    EXPECT_EQ(mm.get_class("Sub").all_attributes().size(), 1u);
    EXPECT_EQ(m.create("Other").get_int("o2"), 0);
}

TEST(Layout, FirstObjectsFromFourThreads) {
    Metamodel mm("Shared");
    auto& base = mm.add_class("Base");
    base.add_attribute({"name", AttrType::String, {}, "unnamed"});
    base.add_attribute({"weight", AttrType::Real, {}, "1.5"});
    base.add_reference({"kids", "Base", true, true, false});
    // Every level redeclares `depth`; as with any redeclared feature, the
    // most derived declaration answers to the name.
    for (int level = 1; level <= 3; ++level) {
        auto& c = mm.add_class("Level" + std::to_string(level));
        c.set_super(level == 1 ? "Base" : "Level" + std::to_string(level - 1));
        c.add_attribute({"depth", AttrType::Int, {}, std::to_string(level)});
    }

    constexpr int kThreads = 4;
    std::latch start(kThreads);
    std::vector<std::string> results(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            start.arrive_and_wait();
            ObjectModel m(mm);
            // Each thread starts from a different class of the chain.
            const std::string first = "Level" + std::to_string(3 - t % 3);
            Object& root = m.create(first, "root");
            std::string out = root.get_string("name") + "/" +
                              std::to_string(root.get_real("weight"));
            for (int level = 1; level <= 3; ++level) {
                Object& o = m.create("Level" + std::to_string(level));
                root.add_ref("kids", o);
                out += "/" + std::to_string(o.get_int("depth"));
            }
            out += "/" + std::to_string(m.all_of("Level2").size());
            results[static_cast<std::size_t>(t)] = out;
        });
    }
    for (std::thread& w : workers) w.join();
    // all_of("Level2"): the Level2 and Level3 children, plus a root of
    // either class.
    EXPECT_EQ(results[0], "unnamed/1.500000/1/2/3/3");
    EXPECT_EQ(results[1], "unnamed/1.500000/1/2/3/3");
    EXPECT_EQ(results[2], "unnamed/1.500000/1/2/3/2");
    EXPECT_EQ(results[3], "unnamed/1.500000/1/2/3/3");
}

// --- validation -----------------------------------------------------------------

TEST_F(ObjectTest, ValidationReportsMissingRequired) {
    m.create("Node", "n");  // name unset (required, no default)
    auto diagnostics = validate(m);
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_EQ(diagnostics[0].object_id, "n");
    EXPECT_THROW(validate_or_throw(m), std::runtime_error);
}

TEST_F(ObjectTest, ValidationPassesOnCompleteObjects) {
    Object& n = m.create("Node", "n");
    n.set("name", std::string("ok"));
    EXPECT_TRUE(validate(m).empty());
    EXPECT_NO_THROW(validate_or_throw(m));
}

// --- E-core I/O -----------------------------------------------------------------

TEST_F(ObjectTest, EcoreRoundTrip) {
    Object& root = m.create("Node", "root");
    root.set("name", std::string("r"));
    root.set("kind", std::string("b"));
    Object& child = m.create("Special", "ch");
    child.set("name", std::string("c"));
    child.set("extra", std::int64_t{7});
    root.add_ref("children", child);
    root.set_ref("next", &child);  // cross reference

    std::string text = to_xml_string(m);
    ObjectModel back = from_xml_string(mm, text);

    ASSERT_EQ(back.size(), 2u);
    const Object* r = back.find("root");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->get_string("kind"), "b");
    ASSERT_EQ(r->refs("children").size(), 1u);
    const Object* c = r->refs("children")[0];
    EXPECT_EQ(c->meta().name(), "Special");
    EXPECT_EQ(c->get_int("extra"), 7);
    EXPECT_EQ(c->parent(), r);
    EXPECT_EQ(r->ref("next"), c);
}

TEST_F(ObjectTest, EcoreRejectsWrongMetamodel) {
    Metamodel other("Other");
    std::string text = to_xml_string(m);
    EXPECT_THROW(from_xml_string(other, text), std::runtime_error);
}

TEST_F(ObjectTest, EcoreRejectsDanglingRef) {
    const char* text = R"(<?xml version="1.0" encoding="UTF-8"?>
<uhcg:model metamodel="Tiny">
  <object class="Node" id="n" name="x"><ref name="next" target="ghost"/></object>
</uhcg:model>)";
    EXPECT_THROW(from_xml_string(mm, text), std::runtime_error);
}

TEST_F(ObjectTest, EcoreRejectsUnknownAttribute) {
    const char* text = R"(<?xml version="1.0" encoding="UTF-8"?>
<uhcg:model metamodel="Tiny">
  <object class="Node" id="n" name="x" bogus="1"/>
</uhcg:model>)";
    EXPECT_THROW(from_xml_string(mm, text), std::runtime_error);
}

TEST(ValueConversion, RejectsTrailingCharacters) {
    EXPECT_THROW(value_from_string(AttrType::Int, "12abc"), std::invalid_argument);
    EXPECT_THROW(value_from_string(AttrType::Real, "1.5x"), std::invalid_argument);
    EXPECT_THROW(value_from_string(AttrType::Int, "12 "), std::invalid_argument);
    EXPECT_EQ(std::get<std::int64_t>(value_from_string(AttrType::Int, "12")), 12);
    EXPECT_DOUBLE_EQ(std::get<double>(value_from_string(AttrType::Real, "1.5")), 1.5);
    EXPECT_DOUBLE_EQ(std::get<double>(value_from_string(AttrType::Real, "-2e3")), -2000.0);
}

TEST(ValueConversion, EcoreRejectsMalformedNumber) {
    const char* text = R"(<?xml version="1.0" encoding="UTF-8"?>
<uhcg:model metamodel="SimulinkCAAM">
  <object class="Block" id="b" name="g" type="Gain" inputs="3x"/>
</uhcg:model>)";
    EXPECT_THROW(from_xml_string(uhcg::simulink::caam_metamodel(), text),
                 std::invalid_argument);
    std::string good = text;
    good.replace(good.find("3x"), 2, "3");
    ObjectModel m = from_xml_string(uhcg::simulink::caam_metamodel(), good);
    EXPECT_EQ(m.find("b")->get_int("inputs"), 3);
    EXPECT_EQ(to_xml_string(from_xml_string(uhcg::simulink::caam_metamodel(),
                                            to_xml_string(m))),
              to_xml_string(m));
}

TEST(ValueConversion, RoundTrips) {
    EXPECT_EQ(value_to_string(Value(std::int64_t{42})), "42");
    EXPECT_EQ(value_to_string(Value(true)), "true");
    EXPECT_EQ(std::get<std::int64_t>(value_from_string(AttrType::Int, "-5")), -5);
    EXPECT_EQ(std::get<bool>(value_from_string(AttrType::Bool, "false")), false);
    EXPECT_THROW(value_from_string(AttrType::Int, "abc"), std::invalid_argument);
    EXPECT_THROW(value_from_string(AttrType::Bool, "maybe"), std::invalid_argument);
}

}  // namespace
