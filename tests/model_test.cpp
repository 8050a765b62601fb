// Unit tests for the reflective model framework (the EMF substitute):
// metamodel, dynamic objects, repositories and XMI persistence.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>

#include "decisive/base/error.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/model/meta.hpp"
#include "decisive/model/object.hpp"
#include "decisive/model/repository.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/ssam/model.hpp"

using namespace decisive;
using namespace decisive::model;

// Global allocation counter for the XMI heap-traffic test below. Only the
// plain (unaligned) overloads are replaced; each keeps malloc/free pairing
// consistent with its matching delete.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// The compiler cannot see that new and delete below pair malloc with free
// consistently, and flags the free() calls as mismatched.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace {

/// A small test metamodel: Element <- Part; Part has attrs + refs.
struct TestMeta {
  MetaPackage pkg{"test"};
  MetaClass* element;
  MetaClass* part;
  MetaClass* port;

  TestMeta() {
    element = &pkg.define_abstract("Element");
    element->add_attribute("name", AttrType::String);
    port = &pkg.define("Port", element);
    port->add_attribute("direction", AttrType::String);
    part = &pkg.define("Part", element);
    part->add_attribute("fit", AttrType::Real);
    part->add_attribute("count", AttrType::Int);
    part->add_attribute("critical", AttrType::Bool);
    part->add_reference("ports", *port, /*containment=*/true, /*many=*/true);
    part->add_reference("next", *part, /*containment=*/false, /*many=*/false);
  }
};

}  // namespace

// ------------------------------------------------------------------- meta --

TEST(Meta, InheritanceLookup) {
  TestMeta meta;
  EXPECT_NE(meta.part->find_attribute("name"), nullptr);  // inherited
  EXPECT_NE(meta.part->find_attribute("fit"), nullptr);
  EXPECT_EQ(meta.port->find_attribute("fit"), nullptr);
  EXPECT_TRUE(meta.part->is_kind_of(*meta.element));
  EXPECT_FALSE(meta.element->is_kind_of(*meta.part));
}

TEST(Meta, DuplicateFeatureThrows) {
  TestMeta meta;
  EXPECT_THROW(meta.part->add_attribute("fit", AttrType::Real), ModelError);
  EXPECT_THROW(meta.part->add_attribute("name", AttrType::String), ModelError);  // inherited
  EXPECT_THROW(meta.part->add_reference("ports", *meta.port, true, true), ModelError);
}

TEST(Meta, DuplicateClassThrows) {
  TestMeta meta;
  EXPECT_THROW(meta.pkg.define("Part"), ModelError);
}

TEST(Meta, CheckedLookupThrows) {
  TestMeta meta;
  EXPECT_THROW((void)meta.part->attribute("nope"), ModelError);
  EXPECT_THROW((void)meta.part->reference("nope"), ModelError);
  EXPECT_THROW((void)meta.pkg.get("Nope"), ModelError);
  EXPECT_NO_THROW((void)meta.pkg.get("Part"));
}

TEST(Meta, AllFeaturesIncludeInherited) {
  TestMeta meta;
  std::vector<const MetaAttribute*> attrs;
  meta.part->for_each_attribute([&](const MetaAttribute& attr) { attrs.push_back(&attr); });
  ASSERT_EQ(attrs.size(), 4u);
  EXPECT_EQ(attrs.front()->name, "name");  // inherited first
}

// ----------------------------------------------------------------- object --

TEST(Object, AbstractClassCannotBeInstantiated) {
  TestMeta meta;
  EXPECT_THROW(ModelObject(*meta.element, 1), ModelError);
}

TEST(Object, TypedAttributeAccess) {
  TestMeta meta;
  ModelObject obj(*meta.part, 1);
  obj.set_string("name", "D1");
  obj.set_real("fit", 10.0);
  obj.set_int("count", 3);
  obj.set_bool("critical", true);
  EXPECT_EQ(obj.get_string("name"), "D1");
  EXPECT_DOUBLE_EQ(obj.get_real("fit"), 10.0);
  EXPECT_EQ(obj.get_int("count"), 3);
  EXPECT_TRUE(obj.get_bool("critical"));
  EXPECT_TRUE(obj.has("name"));
  EXPECT_FALSE(obj.has("direction"));  // not a Part feature at all
}

TEST(Object, UnsetAttributesReturnFallback) {
  TestMeta meta;
  const ModelObject obj(*meta.part, 1);
  EXPECT_EQ(obj.get_string("name", "default"), "default");
  EXPECT_DOUBLE_EQ(obj.get_real("fit", -1.0), -1.0);
  EXPECT_FALSE(obj.has("fit"));
}

TEST(Object, TypeMismatchThrows) {
  TestMeta meta;
  ModelObject obj(*meta.part, 1);
  EXPECT_THROW(obj.set("fit", Value(std::string("ten"))), ModelError);
  EXPECT_THROW(obj.set("name", Value(true)), ModelError);
  EXPECT_THROW(obj.set("unknown", Value(1.0)), ModelError);
}

TEST(Object, IntWidensToReal) {
  TestMeta meta;
  ModelObject obj(*meta.part, 1);
  obj.set("fit", Value(static_cast<long long>(5)));
  EXPECT_DOUBLE_EQ(obj.get_real("fit"), 5.0);
}

TEST(Object, SingleReferenceRejectsSecondTarget) {
  TestMeta meta;
  ModelObject obj(*meta.part, 1);
  obj.add_ref("next", 7);
  EXPECT_THROW(obj.add_ref("next", 8), ModelError);
  obj.set_ref("next", 9);  // replace is fine
  EXPECT_EQ(obj.ref("next"), 9u);
}

TEST(Object, ManyReferenceAccumulatesAndRemoves) {
  TestMeta meta;
  ModelObject obj(*meta.part, 1);
  obj.add_ref("ports", 2);
  obj.add_ref("ports", 3);
  EXPECT_EQ(obj.refs("ports").size(), 2u);
  EXPECT_TRUE(obj.remove_ref("ports", 2));
  EXPECT_FALSE(obj.remove_ref("ports", 2));
  EXPECT_EQ(obj.refs("ports"), (std::vector<ObjectId>{3}));
  EXPECT_EQ(obj.ref("next"), kNullObject);
}

// ------------------------------------------------------------- repository --

TEST(FullLoadRepository, CreateFindIterate) {
  TestMeta meta;
  FullLoadRepository repo;
  const ObjectId a = repo.create(*meta.part).id();
  const ObjectId b = repo.create(*meta.port).id();
  EXPECT_EQ(repo.size(), 2u);
  EXPECT_NE(repo.find(a), nullptr);
  EXPECT_EQ(repo.find(999), nullptr);
  EXPECT_THROW((void)repo.get(999), ModelError);
  size_t parts = 0;
  repo.for_each_of(*meta.part, [&](const ModelObject&) { ++parts; });
  EXPECT_EQ(parts, 1u);
  EXPECT_EQ(repo.all_of(*meta.element).size(), 2u);  // kind-of matching
  (void)b;
}

TEST(FullLoadRepository, MemoryBudgetEnforced) {
  TestMeta meta;
  FullLoadRepository repo(/*memory_budget_bytes=*/2000);
  EXPECT_THROW(
      {
        for (int i = 0; i < 1000; ++i) repo.create(*meta.part);
      },
      CapacityError);
}

namespace {

class CountingSource final : public ElementSource {
 public:
  CountingSource(const MetaClass& cls, std::uint64_t count) : cls_(&cls), count_(count) {}
  [[nodiscard]] std::uint64_t size_hint() const override { return count_; }
  bool next(const std::function<void(const MetaClass&,
                                     const std::function<void(ModelObject&)>&)>& emit)
      override {
    if (emitted_ >= count_) return false;
    const auto i = emitted_++;
    emit(*cls_, [i](ModelObject& obj) {
      obj.set_real("fit", static_cast<double>(i));
      obj.set_bool("critical", i % 2 == 0);
    });
    return true;
  }

 private:
  const MetaClass* cls_;
  std::uint64_t count_;
  std::uint64_t emitted_ = 0;
};

}  // namespace

TEST(FullLoadRepository, LoadFromSource) {
  TestMeta meta;
  FullLoadRepository repo;
  CountingSource source(*meta.part, 10);
  repo.load_from(source);
  EXPECT_EQ(repo.size(), 10u);
}

TEST(FullLoadRepository, AdmissionControlRefusesHugeLoads) {
  TestMeta meta;
  FullLoadRepository repo(/*memory_budget_bytes=*/1024 * 1024);
  CountingSource source(*meta.part, 100'000'000);  // projected ~19 GB
  EXPECT_THROW(repo.load_from(source), CapacityError);
  EXPECT_EQ(repo.size(), 0u);  // refused up front, not mid-way
}

TEST(IndexedRepository, AggregatesMatchFullLoad) {
  TestMeta meta;
  IndexedRepository indexed;
  indexed.index_attribute(*meta.part, "fit");
  indexed.index_attribute(*meta.part, "critical");
  CountingSource source(*meta.part, 100);
  indexed.load_from(source);
  EXPECT_EQ(indexed.element_count(), 100u);
  EXPECT_EQ(indexed.count_of(*meta.part), 100u);
  EXPECT_EQ(indexed.count_of(*meta.element), 100u);  // kind-of
  EXPECT_DOUBLE_EQ(indexed.sum(*meta.part, "fit"), 99.0 * 100.0 / 2.0);
  EXPECT_EQ(indexed.count_true(*meta.part, "critical"), 50u);
}

TEST(IndexedRepository, AggregateOnlyModeSavesMemoryButForbidsPerValue) {
  TestMeta meta;
  IndexedRepository indexed;
  indexed.index_attribute(*meta.part, "fit", /*retain_values=*/false);
  CountingSource source(*meta.part, 1000);
  indexed.load_from(source);
  EXPECT_DOUBLE_EQ(indexed.sum(*meta.part, "fit"), 999.0 * 1000.0 / 2.0);
  EXPECT_THROW(indexed.for_each_value(*meta.part, "fit", [](double) {}), ModelError);
  EXPECT_LT(indexed.approx_bytes(), 4096u);
}

TEST(IndexedRepository, UnindexedAttributeThrows) {
  TestMeta meta;
  IndexedRepository indexed;
  EXPECT_THROW((void)indexed.sum(*meta.part, "fit"), ModelError);
}

// -------------------------------------------------------------------- XMI --

TEST(Xmi, RoundTripPreservesAttributesAndReferences) {
  TestMeta meta;
  FullLoadRepository repo;
  ModelObject& d1 = repo.create(*meta.part);
  d1.set_string("name", "D1");
  d1.set_real("fit", 10.5);
  d1.set_bool("critical", true);
  ModelObject& p1 = repo.create(*meta.port);
  p1.set_string("direction", "in");
  d1.add_ref("ports", p1.id());
  ModelObject& d2 = repo.create(*meta.part);
  d2.set_string("name", "D2");
  d1.set_ref("next", d2.id());

  const std::string text = save_xmi(repo, meta.pkg);
  FullLoadRepository loaded;
  load_xmi(loaded, meta.pkg, text);
  ASSERT_EQ(loaded.size(), 3u);

  const ModelObject* d1_loaded = nullptr;
  loaded.for_each([&](const ModelObject& obj) {
    if (obj.get_string("name") == "D1") d1_loaded = &obj;
  });
  ASSERT_NE(d1_loaded, nullptr);
  EXPECT_DOUBLE_EQ(d1_loaded->get_real("fit"), 10.5);
  EXPECT_TRUE(d1_loaded->get_bool("critical"));
  ASSERT_EQ(d1_loaded->refs("ports").size(), 1u);
  EXPECT_EQ(loaded.get(d1_loaded->refs("ports")[0]).get_string("direction"), "in");
  EXPECT_EQ(loaded.get(d1_loaded->ref("next")).get_string("name"), "D2");
}

TEST(Xmi, SaveLayoutIsPinned) {
  // The file format, byte for byte: attributes in metaclass order (inherited
  // first), then references, each reference's targets space-separated; an
  // object with neither is self-closed. Forward references load.
  TestMeta meta;
  FullLoadRepository repo;
  ModelObject& d1 = repo.create(*meta.part);
  d1.set_real("fit", 2.5);
  d1.set_string("name", "D<1>");
  ModelObject& p1 = repo.create(*meta.port);
  ModelObject& p2 = repo.create(*meta.port);
  d1.add_ref("ports", p1.id());
  d1.add_ref("ports", p2.id());
  const std::string text = save_xmi(repo, meta.pkg);
  EXPECT_EQ(text,
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
            "<model package=\"test\">\n"
            "  <object id=\"1\" class=\"Part\">\n"
            "    <attr name=\"name\" value=\"D&lt;1&gt;\"/>\n"
            "    <attr name=\"fit\" value=\"2.5\"/>\n"
            "    <ref name=\"ports\" targets=\"2 3\"/>\n"
            "  </object>\n"
            "  <object id=\"2\" class=\"Port\"/>\n"
            "  <object id=\"3\" class=\"Port\"/>\n"
            "</model>\n");
  FullLoadRepository loaded;
  load_xmi(loaded, meta.pkg, text);
  EXPECT_EQ(save_xmi(loaded, meta.pkg), text);
}

TEST(Xmi, LoadAppendsAndRemapsIds) {
  TestMeta meta;
  FullLoadRepository repo;
  repo.create(*meta.part).set_string("name", "first");
  const std::string text = save_xmi(repo, meta.pkg);
  load_xmi(repo, meta.pkg, text);  // append the same content again
  EXPECT_EQ(repo.size(), 2u);
}

TEST(Xmi, UnknownClassThrows) {
  TestMeta meta;
  FullLoadRepository repo;
  EXPECT_THROW(
      load_xmi(repo, meta.pkg,
               "<model package=\"test\"><object id=\"1\" class=\"Nope\"/></model>"),
      ModelError);
}

TEST(Xmi, DanglingReferenceThrows) {
  TestMeta meta;
  FullLoadRepository repo;
  EXPECT_THROW(load_xmi(repo, meta.pkg,
                        "<model package=\"test\">"
                        "<object id=\"1\" class=\"Part\">"
                        "<ref name=\"next\" targets=\"99\"/></object></model>"),
               ModelError);
}

TEST(Xmi, FileSaveInChunksEqualsTheStringAndReloads) {
  // save_xmi_file writes the document out in 64 KiB chunks as it streams;
  // a model several chunks long must land byte-identical to save_xmi's
  // string, and load back (read at its exact size) to the same model.
  TestMeta meta;
  FullLoadRepository repo;
  for (int i = 0; i < 2000; ++i) {
    ModelObject& part = repo.create(*meta.part);
    part.set_string("name", "Part & <" + std::to_string(i) + ">");
    part.set_real("fit", 0.5 + i);
    part.set_int("count", i);
    for (int k = 0; k < 2; ++k) {
      ModelObject& port = repo.create(*meta.port);
      port.set_string("direction", k == 0 ? "in" : "out");
      part.add_ref("ports", port.id());
    }
  }
  const std::string text = save_xmi(repo, meta.pkg);
  ASSERT_GT(text.size(), 4u * 65536u);
  const std::string path =
      (std::filesystem::temp_directory_path() / "decisive_xmi_chunked.xmi").string();
  save_xmi_file(path, repo, meta.pkg);
  std::ifstream in(path, std::ios::binary);
  const std::string on_disk{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  EXPECT_EQ(on_disk, text);
  FullLoadRepository loaded;
  load_xmi_file(loaded, meta.pkg, path);
  EXPECT_EQ(loaded.size(), repo.size());
  EXPECT_EQ(save_xmi(loaded, meta.pkg), text);
  std::remove(path.c_str());
  EXPECT_THROW(load_xmi_file(loaded, meta.pkg, path), IoError);
}

namespace {

/// A model of `parts` parts, each with two ports, one name `name_length`
/// characters long.
std::string sample_xmi(const TestMeta& meta, int parts, size_t name_length = 0) {
  FullLoadRepository repo;
  for (int i = 0; i < parts; ++i) {
    ModelObject& part = repo.create(*meta.part);
    part.set_string("name", "Part & <" + std::to_string(i) + ">" +
                                std::string(i == parts / 2 ? name_length : 0, 'n'));
    part.set_real("fit", 0.5 + i);
    for (int k = 0; k < 2; ++k) {
      ModelObject& port = repo.create(*meta.port);
      port.set_string("direction", k == 0 ? "in" : "out");
      part.add_ref("ports", port.id());
    }
    if (i > 0) part.set_ref("next", part.id() - 3);
  }
  return save_xmi(repo, meta.pkg);
}

/// load_xmi's outcome: the reloaded model's XMI, or the error message.
template <typename Load>
std::string load_outcome(const TestMeta& meta, Load load) {
  FullLoadRepository loaded;
  try {
    load(loaded);
  } catch (const Error& error) {
    return std::string("error: ") + error.what();
  }
  return save_xmi(loaded, meta.pkg);
}

}  // namespace

TEST(Xmi, FileLoadThroughTheWindowEqualsTheTextLoad) {
  // load_xmi_file reads through a 64 KiB window: in a model several windows
  // long, objects straddle its boundaries, and one object's 150 000-character
  // name makes that object longer than a window. The reload is the same
  // model, byte for byte.
  TestMeta meta;
  const std::string text = sample_xmi(meta, 3000, 150'000);
  ASSERT_GT(text.size(), 8u * 65536u);
  const std::string path =
      (std::filesystem::temp_directory_path() / "decisive_xmi_window.xmi").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  EXPECT_EQ(load_outcome(meta, [&](auto& repo) { load_xmi_file(repo, meta.pkg, path); }), text);
  std::remove(path.c_str());
}

TEST(Xmi, FileCutMidObjectGivesTheTextLoadsParseError) {
  // A file cut inside an object (mid-attribute, mid-tag, between an
  // object's children, before </model>) is a structured ParseError, with
  // the message, line number included, of the whole text's load.
  TestMeta meta;
  const std::string text = sample_xmi(meta, 3000);
  ASSERT_GT(text.size(), 3u * 65536u);
  const std::string path =
      (std::filesystem::temp_directory_path() / "decisive_xmi_cut.xmi").string();
  for (const size_t cut : {size_t{65536} + 10, text.size() / 2, text.size() / 2 + 17,
                           text.size() - 20, text.size() - 2}) {
    const std::string prefix = text.substr(0, cut);
    {
      std::ofstream out(path, std::ios::binary);
      out << prefix;
    }
    const std::string expected =
        load_outcome(meta, [&](auto& repo) { load_xmi(repo, meta.pkg, prefix); });
    ASSERT_NE(expected.find("xml: "), std::string::npos) << expected;
    EXPECT_EQ(load_outcome(meta, [&](auto& repo) { load_xmi_file(repo, meta.pkg, path); }),
              expected)
        << "cut " << cut;
    FullLoadRepository loaded;
    EXPECT_THROW(load_xmi_file(loaded, meta.pkg, path), ParseError) << "cut " << cut;
  }
  std::remove(path.c_str());
}

TEST(Xmi, FileLoadAndSaveHeapTrafficPerObjectIsBounded) {
  // The 40×32 scaled architecture: 8 246 objects, 27 614 set attributes and
  // 6 087 reference slots. Building each object from the reader's events
  // leaves the model's own storage as most of the load's allocations: an
  // object's attribute vector as it grows, its reference slots and target
  // vectors, and string values too long to store inline (about 5.1 an
  // object). Building an xml::Element per tag and a vector of the class's
  // attributes per object once made 26.1 an object on load and 9.0 on save.
  const auto system = core::make_scaled_architecture(40, 32);
  const std::string path =
      (std::filesystem::temp_directory_path() / "decisive_xmi_heap_traffic.xmi").string();
  const std::size_t before_save = g_alloc_count.load(std::memory_order_relaxed);
  save_xmi_file(path, system.model->repo(), system.model->meta());
  const std::size_t save_allocs = g_alloc_count.load(std::memory_order_relaxed) - before_save;

  ssam::SsamModel loaded;
  const std::size_t before_load = g_alloc_count.load(std::memory_order_relaxed);
  load_xmi_file(loaded.repo(), loaded.meta(), path);
  const std::size_t load_allocs = g_alloc_count.load(std::memory_order_relaxed) - before_load;
  std::remove(path.c_str());

  const std::size_t objects = loaded.repo().size();
  ASSERT_EQ(objects, 8246u);
  EXPECT_LE(load_allocs, objects * 52 / 10) << load_allocs << " allocations";
  EXPECT_LE(save_allocs, objects / 10) << save_allocs << " allocations";
}

TEST(Xmi, ValueFromStringParsesEachType) {
  EXPECT_EQ(std::get<std::string>(value_from_string(AttrType::String, "x")), "x");
  EXPECT_EQ(std::get<long long>(value_from_string(AttrType::Int, "4")), 4);
  EXPECT_DOUBLE_EQ(std::get<double>(value_from_string(AttrType::Real, "4.5")), 4.5);
  EXPECT_TRUE(std::get<bool>(value_from_string(AttrType::Bool, "true")));
  EXPECT_THROW(value_from_string(AttrType::Int, "x"), ParseError);
}
