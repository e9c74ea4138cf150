// Config/scenario serialization tests: the JSON round-trip property over
// randomized configs, the validate() rejection table, dotted set_field()
// over every public knob, and the SweepSpec parse/mismatch suite.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bench/scenario.hpp"
#include "core/config_io.hpp"

namespace amo {
namespace {

std::string dump(const core::SystemConfig& cfg) {
  return core::to_json(cfg).dump();
}

TEST(ConfigIo, DefaultRoundTrips) {
  const core::SystemConfig cfg;
  const core::SystemConfig back = core::config_from_json(core::to_json(cfg));
  EXPECT_EQ(dump(cfg), dump(back));
}

// parse(dump(cfg)) == cfg for arbitrary field values, not just defaults.
// Values are random bits — the round trip must be exact regardless of
// whether the combination would validate.
TEST(ConfigIo, RandomizedRoundTrips) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int trial = 0; trial < 64; ++trial) {
    core::SystemConfig cfg;
    core::visit_config_fields(cfg, [&](const char*, auto& field) {
      using T = std::decay_t<decltype(field)>;
      if constexpr (std::is_same_v<T, bool>) {
        field = (rng() & 1) != 0;
      } else {
        field = static_cast<T>(rng());
      }
    });
    const std::string text = core::to_json(cfg).dump();
    const core::SystemConfig back =
        core::config_from_json(sim::Json::parse(text));
    EXPECT_EQ(text, dump(back)) << "trial " << trial;
  }
}

TEST(ConfigIo, NestedAndDottedSpellingsCompose) {
  core::SystemConfig a;
  core::SystemConfig b;
  core::apply_json(a, sim::Json::parse(
                          R"({"dir": {"occupancy_cycles": 33}, "seed": 9})"));
  core::apply_json(b, sim::Json::parse(
                          R"({"dir.occupancy_cycles": 33, "seed": 9})"));
  EXPECT_EQ(dump(a), dump(b));
  EXPECT_EQ(a.dir.occupancy_cycles, 33u);
  EXPECT_EQ(a.seed, 9u);
}

// Unknown keys (typos, and knobs that no longer exist) are rejected with
// the offending key first and the nearest real field among the candidates.
TEST(ConfigIo, UnknownKeyNamesFieldAndCandidates) {
  struct Case {
    const char* key;
    const char* candidate;
  };
  const Case cases[] = {
      {"dir.occupnacy", "dir.occupancy_cycles"},
      // No field is left under `spin.`, so the retired spin keys fall back
      // to listing every field.
      {"spin.uncached_watch", "num_cpus"},
      {"spin.llsc_watch_after", "stats.histograms"},
      {"spin.watch_repoll_cycles", "am_timeout_cycles"},
      // The parallel engine's thread count went with the engine.
      {"sim_threads", "seed"},
  };
  for (const Case& c : cases) {
    core::SystemConfig cfg;
    sim::Json j = sim::Json::object();
    j[c.key] = std::uint64_t{1};
    try {
      core::apply_json(cfg, j);
      ADD_FAILURE() << "expected ConfigError for " << c.key;
    } catch (const core::ConfigError& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind(c.key, 0), 0u) << msg;
      EXPECT_NE(msg.find(c.candidate), std::string::npos) << msg;
    }
  }
}

TEST(ConfigIo, TypeMismatchThrows) {
  core::SystemConfig cfg;
  EXPECT_THROW(
      core::apply_json(cfg, sim::Json::parse(R"({"num_cpus": true})")),
      core::ConfigError);
  EXPECT_THROW(
      core::apply_json(cfg, sim::Json::parse(R"({"dir.three_hop": 7})")),
      core::ConfigError);
  EXPECT_THROW(
      core::apply_json(cfg, sim::Json::parse(R"({"seed": "abc"})")),
      core::ConfigError);
}

// Every public knob accepts a dotted set_field(), in both the JSON-value
// and the command-line-text spelling.
TEST(ConfigIo, SetFieldCoversEveryKnob) {
  core::SystemConfig cfg;
  const sim::Json all = core::to_json(cfg);
  for (const std::string& name : core::config_field_names()) {
    const sim::Json* v = all.find_path(name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_NO_THROW(core::set_field(cfg, name, *v)) << name;
    const std::string text =
        v->is_bool() ? (v->as_bool() ? "true" : "false")
                     : std::to_string(v->as_uint());
    EXPECT_NO_THROW(
        core::set_field(cfg, name, std::string_view(text))) << name;
  }
  EXPECT_EQ(dump(cfg), all.dump());
  EXPECT_THROW(core::set_field(cfg, "no.such.knob", sim::Json(1)),
               core::ConfigError);
  EXPECT_THROW(core::set_field(cfg, "seed", std::string_view("1x")),
               core::ConfigError);
  EXPECT_THROW(core::set_field(cfg, "dir.three_hop",
                               std::string_view("maybe")),
               core::ConfigError);
}

// The rejection table: each inconsistent knob combination must fail
// validate() with a message naming the offending field.
TEST(ConfigIo, ValidateRejectionTable) {
  struct Case {
    const char* field;
    const char* value;
  };
  const Case cases[] = {
      {"num_cpus", "0"},
      {"cpus_per_node", "0"},
      {"cache.l1.ways", "0"},
      {"cache.l1.ways", "9"},  // SharerMask is one byte per set way
      {"cache.l2.line_bytes", "12"},
      {"cache.l2.line_bytes", "4"},
      {"cache.l1.size_bytes", "1000"},
      {"net.radix", "1"},
      {"net.link_cycles_per_16b", "0"},
      {"net.min_packet_bytes", "0"},
      {"amu.cache_words", "0"},
      {"dram.access_cycles", "0"},
  };
  for (const Case& c : cases) {
    core::SystemConfig cfg;
    core::set_field(cfg, c.field, std::string_view(c.value));
    try {
      core::validate(cfg);
      FAIL() << c.field << "=" << c.value << " should not validate";
    } catch (const core::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << c.field << "=" << c.value << " -> " << e.what();
    }
  }
  // L1/L2 line sizes must agree; the message should name a line_bytes.
  core::SystemConfig cfg;
  cfg.cache.l1.line_bytes = 64;
  cfg.cache.l2.line_bytes = 128;
  try {
    core::validate(cfg);
    FAIL() << "mismatched line sizes should not validate";
  } catch (const core::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line_bytes"), std::string::npos);
  }
  EXPECT_NO_THROW(core::validate(core::SystemConfig{}));
}

// ---------------------------------------------------------------- specs

TEST(SweepSpecJson, RoundTrips) {
  const char* text = R"({
    "workload": "table2",
    "bench": "table2_barriers",
    "meta": {"cpus": [4, 8]},
    "cells": [
      {"set": {"num_cpus": 4},
       "params": {"kernel": "barrier", "mech": "LL/SC", "episodes": 2}},
      {"set": {"num_cpus": 8, "net.hop_cycles": 100},
       "params": {"kernel": "lock", "mech": "AMO", "array": true}}
    ]
  })";
  const bench::SweepSpec spec = bench::spec_from_json(sim::Json::parse(text));
  EXPECT_EQ(spec.workload, "table2");
  EXPECT_EQ(spec.bench_name, "table2_barriers");
  ASSERT_EQ(spec.cells.size(), 2u);
  EXPECT_EQ(spec.cells[0].params.kernel, bench::Kernel::kBarrier);
  EXPECT_EQ(spec.cells[0].params.episodes, 2);
  EXPECT_EQ(spec.cells[1].params.mech, sync::Mechanism::kAmo);
  EXPECT_TRUE(spec.cells[1].params.array);
  ASSERT_EQ(spec.cells[1].set.size(), 2u);
  EXPECT_EQ(spec.cells[1].set[1].key, "net.hop_cycles");

  const sim::Json j = bench::spec_to_json(spec);
  const bench::SweepSpec back = bench::spec_from_json(j);
  EXPECT_EQ(j.dump(), bench::spec_to_json(back).dump());
}

TEST(SweepSpecJson, BenchNameDefaultsToWorkload) {
  const bench::SweepSpec spec = bench::spec_from_json(
      sim::Json::parse(R"({"workload": "fig1", "cells": []})"));
  EXPECT_EQ(spec.bench_name, "fig1");
  const bench::SweepSpec anon =
      bench::spec_from_json(sim::Json::parse(R"({"cells": []})"));
  EXPECT_EQ(anon.bench_name, "scenario");
}

TEST(SweepSpecJson, MissingCellsThrows) {
  EXPECT_THROW(bench::spec_from_json(
                   sim::Json::parse(R"({"workload": "table2"})")),
               std::runtime_error);
}

TEST(SweepSpecJson, UnknownKeysNameLocationAndCandidates) {
  try {
    (void)bench::spec_from_json(sim::Json::parse(R"({"cellz": []})"));
    FAIL() << "expected error";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("cellz", 0), 0u) << msg;
    EXPECT_NE(msg.find("cells"), std::string::npos) << msg;
  }
  try {
    (void)bench::spec_from_json(sim::Json::parse(
        R"({"cells": [{"params": {"kernel": "barrier", "mech": "LL/SC"}},
                      {"paramz": {}}]})"));
    FAIL() << "expected error";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("cells[1].", 0), 0u) << msg;
    EXPECT_NE(msg.find("params"), std::string::npos) << msg;
  }
}

TEST(SweepSpecJson, BadEnumListsCandidates) {
  try {
    (void)bench::spec_from_json(sim::Json::parse(
        R"({"cells": [{"params": {"kernel": "barier", "mech": "LL/SC"}}]})"));
    FAIL() << "expected error";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("params.kernel"), std::string::npos) << msg;
    EXPECT_NE(msg.find("barrier_style"), std::string::npos) << msg;
  }
  try {
    (void)bench::spec_from_json(sim::Json::parse(
        R"({"cells": [{"params": {"kernel": "barrier", "mech": "LLSC"}}]})"));
    FAIL() << "expected error";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("params.mech"), std::string::npos) << msg;
    EXPECT_NE(msg.find("LL/SC"), std::string::npos) << msg;
  }
}

// A spec whose cell config does not validate fails before any cell runs,
// with the cell index and the offending field in the message.
TEST(SweepSpecJson, RunSpecValidatesCellConfigs) {
  const bench::SweepSpec spec = bench::spec_from_json(sim::Json::parse(
      R"({"cells": [
            {"set": {"num_cpus": 4},
             "params": {"kernel": "barrier", "mech": "LL/SC"}},
            {"set": {"amu.cache_words": 0},
             "params": {"kernel": "barrier", "mech": "AMO"}}
          ]})"));
  try {
    (void)bench::run_spec(spec, core::SystemConfig{}, 1);
    FAIL() << "expected ConfigError";
  } catch (const core::ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("cells[1]", 0), 0u) << msg;
    EXPECT_NE(msg.find("amu.cache_words"), std::string::npos) << msg;
  }
}

TEST(Mechanism, FromStringMatchesToString) {
  for (sync::Mechanism m : sync::kAllMechanisms) {
    const auto back = sync::mechanism_from_string(sync::to_string(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(sync::mechanism_from_string("LLSC").has_value());
  EXPECT_FALSE(sync::mechanism_from_string("").has_value());
}

}  // namespace
}  // namespace amo
