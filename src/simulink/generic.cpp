#include "simulink/generic.hpp"

#include <map>
#include <stdexcept>

namespace uhcg::simulink {
namespace {

using model::AttrType;
using model::Metamodel;
using model::Object;
using model::ObjectModel;

Metamodel build_metamodel() {
    Metamodel mm("SimulinkCAAM");

    auto& m = mm.add_class("Model");
    m.add_attribute({"name", AttrType::String, {}, std::nullopt});
    m.add_attribute({"stopTime", AttrType::Real, {}, "10"});
    m.add_attribute({"fixedStep", AttrType::Real, {}, "1"});
    m.add_attribute({"solver", AttrType::String, {}, "FixedStepDiscrete"});
    m.add_reference({"system", "System", true, false, true});

    auto& s = mm.add_class("System");
    s.add_attribute({"name", AttrType::String, {}, std::nullopt});
    s.add_reference({"blocks", "Block", true, true, false});
    s.add_reference({"lines", "Line", true, true, false});

    auto& b = mm.add_class("Block");
    b.add_attribute({"name", AttrType::String, {}, std::nullopt});
    b.add_attribute({"type",
                     AttrType::Enum,
                     {"SubSystem", "Inport", "Outport", "S-Function", "Product",
                      "Sum", "Gain", "UnitDelay", "Constant", "Scope",
                      "CommChannel"},
                     std::nullopt});
    b.add_attribute({"role",
                     AttrType::Enum,
                     {"None", "CPU-SS", "Thread-SS", "InterCPU", "IntraCPU"},
                     "None"});
    b.add_attribute({"inputs", AttrType::Int, {}, "0"});
    b.add_attribute({"outputs", AttrType::Int, {}, "0"});
    b.add_reference({"params", "Param", true, true, false});
    b.add_reference({"portNames", "PortName", true, true, false});
    b.add_reference({"system", "System", true, false, false});

    auto& p = mm.add_class("Param");
    p.add_attribute({"key", AttrType::String, {}, std::nullopt});
    p.add_attribute({"value", AttrType::String, {}, std::nullopt});

    auto& pn = mm.add_class("PortName");
    pn.add_attribute({"index", AttrType::Int, {}, std::nullopt});
    pn.add_attribute({"isInput", AttrType::Bool, {}, std::nullopt});
    pn.add_attribute({"name", AttrType::String, {}, std::nullopt});

    auto& l = mm.add_class("Line");
    l.add_attribute({"name", AttrType::String, {}, ""});
    l.add_reference({"src", "Endpoint", true, false, true});
    l.add_reference({"dsts", "Endpoint", true, true, true});

    auto& e = mm.add_class("Endpoint");
    e.add_attribute({"port", AttrType::Int, {}, "1"});
    e.add_reference({"block", "Block", false, false, true});

    return mm;
}

void write_system(ObjectModel& out, Object& gsys, const System& system,
                  const std::string& id_prefix);

Object& write_block(ObjectModel& out, const Block& block,
                    const std::string& id_prefix) {
    std::string id = id_prefix + ".b." + block.name();
    Object& gb = out.create("Block", id);
    gb.set("name", block.name());
    gb.set("type", std::string(to_string(block.type())));
    gb.set("role", std::string(to_string(block.role())));
    gb.set("inputs", static_cast<std::int64_t>(block.input_count()));
    gb.set("outputs", static_cast<std::int64_t>(block.output_count()));
    std::size_t pindex = 0;
    for (const auto& [key, value] : block.parameters()) {
        Object& gp = out.create("Param", id + ".param" + std::to_string(pindex++));
        gp.set("key", key);
        gp.set("value", value);
        gb.add_ref("params", gp);
    }
    auto emit_port_name = [&](int index, bool is_input, const std::string& name) {
        if (name.empty()) return;
        Object& gpn = out.create(
            "PortName", id + (is_input ? ".in" : ".out") + std::to_string(index));
        gpn.set("index", static_cast<std::int64_t>(index));
        gpn.set("isInput", is_input);
        gpn.set("name", name);
        gb.add_ref("portNames", gpn);
    };
    for (int i = 1; i <= block.input_count(); ++i)
        emit_port_name(i, true, block.input_name(i));
    for (int i = 1; i <= block.output_count(); ++i)
        emit_port_name(i, false, block.output_name(i));
    if (block.system()) {
        Object& gsys = out.create("System", id + ".sys");
        gsys.set("name", block.system()->name());
        gb.add_ref("system", gsys);
        write_system(out, gsys, *block.system(), id);
    }
    return gb;
}

void write_system(ObjectModel& out, Object& gsys, const System& system,
                  const std::string& id_prefix) {
    std::map<const Block*, Object*> block_map;
    for (const Block* b : system.block_view()) {
        Object& gb = write_block(out, *b, id_prefix);
        gsys.add_ref("blocks", gb);
        block_map[b] = &gb;
    }
    std::size_t lindex = 0;
    for (const Line* line : system.lines()) {
        std::string lid = id_prefix + ".line" + std::to_string(lindex++);
        Object& gl = out.create("Line", lid);
        gl.set("name", line->name());
        Object& gsrc = out.create("Endpoint", lid + ".src");
        gsrc.set("port", static_cast<std::int64_t>(line->source().port));
        gsrc.set_ref("block", block_map.at(line->source().block));
        gl.add_ref("src", gsrc);
        std::size_t dindex = 0;
        for (const PortRef& dst : line->destinations()) {
            Object& gdst = out.create("Endpoint", lid + ".d" + std::to_string(dindex++));
            gdst.set("port", static_cast<std::int64_t>(dst.port));
            gdst.set_ref("block", block_map.at(dst.block));
            gl.add_ref("dsts", gdst);
        }
        gsys.add_ref("lines", gl);
    }
}

void read_system(System& system, const Object& gsys,
                 std::map<const Object*, Block*>& block_map);

void read_block(System& system, const Object& gb,
                std::map<const Object*, Block*>& block_map) {
    auto type = block_type_from_string(gb.get_string("type"));
    if (!type)
        throw std::runtime_error("unknown block type: " + gb.get_string("type"));
    Block& block = system.add_block(gb.get_string("name"), *type);
    auto role = caam_role_from_string(gb.get_string("role"));
    if (!role)
        throw std::runtime_error("unknown CAAM role: " + gb.get_string("role"));
    block.set_role(*role);
    block.set_ports(static_cast<int>(gb.get_int("inputs")),
                    static_cast<int>(gb.get_int("outputs")));
    for (const Object* gp : gb.refs("params"))
        block.set_parameter(gp->get_string("key"), gp->get_string("value"));
    for (const Object* gpn : gb.refs("portNames")) {
        int index = static_cast<int>(gpn->get_int("index"));
        if (gpn->get_bool("isInput"))
            block.set_input_name(index, gpn->get_string("name"));
        else
            block.set_output_name(index, gpn->get_string("name"));
    }
    block_map[&gb] = &block;
    if (const Object* gsys = gb.ref("system")) {
        if (!block.system())
            throw std::runtime_error("non-subsystem block '" + block.name() +
                                     "' carries a nested system");
        read_system(*block.system(), *gsys, block_map);
    }
}

void read_system(System& system, const Object& gsys,
                 std::map<const Object*, Block*>& block_map) {
    for (const Object* gb : gsys.refs("blocks")) read_block(system, *gb, block_map);
    for (const Object* gl : gsys.refs("lines")) {
        const Object* gsrc = gl->ref("src");
        if (!gsrc) throw std::runtime_error("line without source endpoint");
        PortRef src{block_map.at(gsrc->ref("block")),
                    static_cast<int>(gsrc->get_int("port"))};
        for (const Object* gdst : gl->refs("dsts")) {
            PortRef dst{block_map.at(gdst->ref("block")),
                        static_cast<int>(gdst->get_int("port"))};
            system.add_line(src, dst, gl->get_string("name"));
        }
    }
}

}  // namespace

const Metamodel& caam_metamodel() {
    static const Metamodel mm = build_metamodel();
    return mm;
}

ObjectModel to_generic(const Model& typed) {
    ObjectModel out(caam_metamodel());
    Object& root = out.create("Model", "mdl." + typed.name());
    root.set("name", typed.name());
    root.set("stopTime", typed.stop_time);
    root.set("fixedStep", typed.fixed_step);
    root.set("solver", typed.solver);
    Object& gsys = out.create("System", "mdl." + typed.name() + ".root");
    gsys.set("name", typed.root().name());
    root.add_ref("system", gsys);
    write_system(out, gsys, typed.root(), "mdl." + typed.name());
    return out;
}

Model from_generic(const ObjectModel& generic) {
    const auto roots = generic.all_of("Model");
    if (roots.size() != 1)
        throw std::runtime_error(
            "generic Simulink model must contain exactly one Model");
    const Object& root = *roots.front();
    Model out(root.get_string("name"));
    out.stop_time = root.get_real("stopTime");
    out.fixed_step = root.get_real("fixedStep");
    out.solver = root.get_string("solver");
    const Object* gsys = root.ref("system");
    if (!gsys) throw std::runtime_error("Model without root system");
    std::map<const Object*, Block*> block_map;
    read_system(out.root(), *gsys, block_map);
    return out;
}

}  // namespace uhcg::simulink
