// Unit tests for the machine-readable stats pipeline: the Json document
// type (dump/parse round-trip, stable key order) and the StatsRegistry.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "sim/json.hpp"
#include "sim/stats.hpp"
#include "sim/stats_registry.hpp"

namespace amo::sim {
namespace {

TEST(Json, ScalarsDump) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(std::uint64_t{42}).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  // Integral-valued doubles stay recognizably floating-point.
  EXPECT_EQ(Json(8.0).dump(), "8.0");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(Json, LargeUint64IsExact) {
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  EXPECT_EQ(Json(big).dump(), "18446744073709551615");
  EXPECT_EQ(Json::parse("18446744073709551615").as_uint(), big);
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
  EXPECT_EQ(Json::parse("\"a\\u0041\\n\"").as_string(), "aA\n");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["apple"] = 2;
  j["mango"]["nested"] = 3;
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":{\"nested\":3}}");
}

TEST(Json, ArrayAndFindPath) {
  Json j = Json::object();
  j["xs"].push_back(1);
  j["xs"].push_back("two");
  j["a"]["b"]["c"] = 9;
  EXPECT_EQ(j["xs"].size(), 2u);
  ASSERT_NE(j.find_path("a.b.c"), nullptr);
  EXPECT_EQ(j.find_path("a.b.c")->as_uint(), 9u);
  EXPECT_EQ(j.find_path("a.b.missing"), nullptr);
}

TEST(Json, RoundTripIsStable) {
  Json j = Json::object();
  j["name"] = "table2";
  j["count"] = std::uint64_t{123456789};
  j["neg"] = -5;
  j["ratio"] = 0.1;
  j["flag"] = true;
  j["nothing"] = nullptr;
  j["list"].push_back(1);
  j["list"].push_back(2.5);
  j["nested"]["k"] = "v";
  const std::string once = j.dump();
  const Json back = Json::parse(once);
  EXPECT_EQ(back, j);
  EXPECT_EQ(back.dump(), once);
  // Pretty output parses back to the same document too.
  EXPECT_EQ(Json::parse(j.dump(2)), j);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("nul"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("1 2"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{'a':1}"), std::runtime_error);
}

TEST(Json, ParseHandlesWhitespaceAndNesting) {
  const Json j = Json::parse("  { \"a\" : [ 1 , { \"b\" : null } ] }\n");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.at("a").size(), 2u);
  EXPECT_TRUE(j.at("a")[1].at("b").is_null());
}

TEST(StatsRegistry, ReadsCountersLazily) {
  StatsRegistry reg;
  std::uint64_t hits = 0;
  reg.add_counter("node0.amu.cache_hits", &hits);
  EXPECT_EQ(reg.value("node0.amu.cache_hits").as_uint(), 0u);
  hits = 17;  // registry must observe the live value, not a copy
  EXPECT_EQ(reg.value("node0.amu.cache_hits").as_uint(), 17u);
}

TEST(StatsRegistry, SnapshotNestsDottedNames) {
  StatsRegistry reg;
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  std::uint64_t c = 3;
  reg.add_counter("net.packets", &a);
  reg.add_counter("node0.amu.ops", &b);
  reg.add_counter("node0.dir.gets", &c);
  reg.add_fn("engine.now", [] { return std::uint64_t{99}; });
  const Json snap = reg.snapshot();
  EXPECT_EQ(snap.find_path("net.packets")->as_uint(), 1u);
  EXPECT_EQ(snap.find_path("node0.amu.ops")->as_uint(), 2u);
  EXPECT_EQ(snap.find_path("node0.dir.gets")->as_uint(), 3u);
  EXPECT_EQ(snap.find_path("engine.now")->as_uint(), 99u);
}

TEST(StatsRegistry, SnapshotJsonRoundTripsWithStableKeyOrder) {
  StatsRegistry reg;
  std::uint64_t zebra = 10;
  std::uint64_t apple = 20;
  Accum lat;
  lat.add(5);
  lat.add(15);
  reg.add_counter("z.zebra", &zebra);
  reg.add_counter("a.apple", &apple);
  reg.add_accum("a.latency", &lat);
  const Json snap = reg.snapshot();
  const std::string dumped = snap.dump();
  // Registration order, not alphabetical order.
  EXPECT_LT(dumped.find("zebra"), dumped.find("apple"));
  // Round-trip: parse(dump) == original, and re-dump is byte-identical.
  EXPECT_EQ(Json::parse(dumped), snap);
  EXPECT_EQ(Json::parse(dumped).dump(), dumped);
  // Two snapshots of unchanged counters serialize identically.
  EXPECT_EQ(reg.snapshot().dump(), dumped);
}

TEST(StatsRegistry, AccumSerializesDistribution) {
  StatsRegistry reg;
  Accum acc;
  acc.add(10);
  acc.add(20);
  acc.add(30);
  reg.add_accum("net.latency", &acc);
  const Json j = reg.value("net.latency");
  EXPECT_EQ(j.at("count").as_uint(), 3u);
  EXPECT_EQ(j.at("sum").as_uint(), 60u);
  EXPECT_EQ(j.at("min").as_uint(), 10u);
  EXPECT_EQ(j.at("max").as_uint(), 30u);
  EXPECT_DOUBLE_EQ(j.at("mean").as_double(), 20.0);
  EXPECT_NEAR(j.at("stddev").as_double(), 8.16496580927726, 1e-9);
}

TEST(StatsRegistry, DuplicateNameThrows) {
  StatsRegistry reg;
  std::uint64_t v = 0;
  reg.add_counter("x.y", &v);
  EXPECT_THROW(reg.add_counter("x.y", &v), std::logic_error);
}

TEST(StatsRegistry, UnknownNameThrows) {
  StatsRegistry reg;
  EXPECT_THROW((void)reg.value("no.such"), std::out_of_range);
}

// A stats struct as subsystems register it: counters and an Accum, read
// through a static field table in an order other than declaration order.
struct DemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  Accum depth;
  std::uint64_t unregistered = 0;
};

constexpr StatField kDemoFields[] = {
    {"misses", offsetof(DemoStats, misses)},
    {"depth", offsetof(DemoStats, depth), StatField::Kind::kAccum},
    {"hits", offsetof(DemoStats, hits)},
};

DemoStats demo_stats() {
  DemoStats s;
  s.hits = 3;
  s.misses = 5;
  s.depth.add(2);
  s.depth.add(7);
  s.unregistered = 99;
  return s;
}

TEST(StatsRegistry, GroupSnapshotsLikeItsFieldsAddedOneByOne) {
  const DemoStats s = demo_stats();
  std::uint64_t before = 1;
  std::uint64_t after = 2;

  StatsRegistry grouped;
  grouped.add_counter("x.before", &before);
  grouped.add_group("x.demo", &s, kDemoFields);
  grouped.add_counter("x.demo.extra", &after);
  grouped.add_counter("x.after", &after);

  StatsRegistry single;
  single.add_counter("x.before", &before);
  single.add_counter("x.demo.misses", &s.misses);
  single.add_accum("x.demo.depth", &s.depth);
  single.add_counter("x.demo.hits", &s.hits);
  single.add_counter("x.demo.extra", &after);
  single.add_counter("x.after", &after);

  EXPECT_EQ(grouped.snapshot().dump(), single.snapshot().dump());
  EXPECT_EQ(grouped.size(), 4u);  // the group is one entry
}

TEST(StatsRegistry, GroupReadsFieldsLive) {
  DemoStats s;
  StatsRegistry reg;
  reg.add_group("demo", &s, kDemoFields);
  EXPECT_EQ(reg.snapshot().find_path("demo.hits")->as_uint(), 0u);
  s.hits = 11;
  s.depth.add(4);
  const Json snap = reg.snapshot();
  EXPECT_EQ(snap.find_path("demo.hits")->as_uint(), 11u);
  EXPECT_EQ(snap.find_path("demo.depth.count")->as_uint(), 1u);
  EXPECT_EQ(snap.find_path("demo.unregistered"), nullptr);
}

TEST(StatsRegistry, ValueReadsGroupFields) {
  DemoStats s = demo_stats();
  StatsRegistry reg;
  reg.add_group("node0.demo", &s, kDemoFields);
  EXPECT_EQ(reg.value("node0.demo.hits").as_uint(), 3u);
  EXPECT_EQ(reg.value("node0.demo.misses").as_uint(), 5u);
  s.misses = 6;
  EXPECT_EQ(reg.value("node0.demo.misses").as_uint(), 6u);
  const Json depth = reg.value("node0.demo.depth");
  EXPECT_EQ(depth.at("count").as_uint(), 2u);
  EXPECT_EQ(depth.at("sum").as_uint(), 9u);
  EXPECT_EQ(depth.at("max").as_uint(), 7u);
  EXPECT_EQ(reg.value("node0.demo").dump(),
            reg.snapshot().find_path("node0.demo")->dump());
  EXPECT_THROW((void)reg.value("node0.demo.unregistered"), std::out_of_range);
  EXPECT_THROW((void)reg.value("node0.demo.hits.x"), std::out_of_range);
  EXPECT_THROW((void)reg.value("node0.hits"), std::out_of_range);
}

TEST(StatsRegistry, GroupNamesClashLikeSingleNames) {
  const DemoStats s = demo_stats();
  std::uint64_t v = 0;
  StatsRegistry reg;
  reg.add_group("p", &s, kDemoFields);
  // A second group, or a single name, under the same prefix.
  EXPECT_THROW(reg.add_group("p", &s, kDemoFields), std::logic_error);
  EXPECT_THROW(reg.add_counter("p", &v), std::logic_error);
  // A single name that is one of the group's fields.
  EXPECT_THROW(reg.add_counter("p.hits", &v), std::logic_error);
  EXPECT_THROW(reg.add_accum("p.depth", &s.depth), std::logic_error);
  // A group whose prefix is a single name, or whose fields are.
  reg.add_counter("q", &v);
  EXPECT_THROW(reg.add_group("q", &s, kDemoFields), std::logic_error);
  reg.add_counter("r.misses", &v);
  EXPECT_THROW(reg.add_group("r", &s, kDemoFields), std::logic_error);
  // Other names under a group's prefix, and groups under a single
  // name's parent, are fine.
  reg.add_counter("p.other", &v);
  reg.add_counter("t.other", &v);
  reg.add_group("t", &s, kDemoFields);
  reg.add_group("p.nested", &s, kDemoFields);
  EXPECT_EQ(reg.value("p.nested.hits").as_uint(), 3u);
  EXPECT_EQ(reg.value("t.hits").as_uint(), 3u);
}

}  // namespace
}  // namespace amo::sim
