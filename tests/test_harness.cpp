// Benchmark-harness tests: CLI parsing, the reporter and sweep runner, and
// the barrier/lock cells' basic sanity (run_cell is the layer every
// reported number flows through).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench/harness.hpp"
#include "bench/scenario.hpp"
#include "core/config_io.hpp"

namespace amo::bench {
namespace {

// Barrier cells report cycles per barrier as `primary` and cycles per
// processor as `secondary`; lock cells report total cycles and cycles per
// acquire.
CellParams barrier_params(int episodes) {
  CellParams params;
  params.kernel = Kernel::kBarrier;
  params.episodes = episodes;
  return params;
}

CellParams lock_params(int iters) {
  CellParams params;
  params.kernel = Kernel::kLock;
  params.iters = iters;
  return params;
}

CliOptions parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  return parse_cli(static_cast<int>(argv.size()),
                   const_cast<char**>(argv.data()));
}

TEST(Cli, DefaultsAreEmpty) {
  const CliOptions opt = parse({});
  EXPECT_TRUE(opt.cpus.empty());
  EXPECT_EQ(opt.episodes, 0);
  EXPECT_EQ(opt.iters, 0);
  EXPECT_FALSE(opt.quick);
}

TEST(Cli, ParsesCpuList) {
  const CliOptions opt = parse({"--cpus=4,16,256"});
  EXPECT_EQ(opt.cpus, (std::vector<std::uint32_t>{4, 16, 256}));
}

TEST(Cli, ParsesSingleCpu) {
  const CliOptions opt = parse({"--cpus=32"});
  EXPECT_EQ(opt.cpus, (std::vector<std::uint32_t>{32}));
}

TEST(Cli, ParsesEpisodesItersQuick) {
  const CliOptions opt = parse({"--episodes=3", "--iters=9", "--quick"});
  EXPECT_EQ(opt.episodes, 3);
  EXPECT_EQ(opt.iters, 9);
  EXPECT_TRUE(opt.quick);
}

TEST(Cli, RejectsUnknownOption) {
  EXPECT_THROW(parse({"--bogus"}), std::runtime_error);
}

// Regression: malformed numeric values used to be silently parsed as 0
// (atoi/strtoul) and ignored; they must be hard errors.
TEST(Cli, RejectsMalformedCpuLists) {
  EXPECT_THROW(parse({"--cpus="}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=abc"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=4,x,8"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=4,,8"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=4,"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=,4"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=0"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=16x"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=-4"}), std::runtime_error);
  EXPECT_THROW(parse({"--cpus=99999999999999999999"}), std::runtime_error);
}

TEST(Cli, RejectsMalformedEpisodesAndIters) {
  EXPECT_THROW(parse({"--episodes="}), std::runtime_error);
  EXPECT_THROW(parse({"--episodes=abc"}), std::runtime_error);
  EXPECT_THROW(parse({"--episodes=-3"}), std::runtime_error);
  EXPECT_THROW(parse({"--episodes=0"}), std::runtime_error);
  EXPECT_THROW(parse({"--episodes=3.5"}), std::runtime_error);
  EXPECT_THROW(parse({"--iters="}), std::runtime_error);
  EXPECT_THROW(parse({"--iters=1e3"}), std::runtime_error);
  EXPECT_THROW(parse({"--iters=seven"}), std::runtime_error);
}

TEST(Cli, ParsesThreadsAndSeed) {
  const CliOptions defaults = parse({});
  EXPECT_EQ(defaults.threads, 1u);
  EXPECT_EQ(defaults.seed, 0u);
  const CliOptions opt = parse({"--threads=8", "--seed=12345"});
  EXPECT_EQ(opt.threads, 8u);
  EXPECT_EQ(opt.seed, 12345u);
}

TEST(Cli, RejectsMalformedThreadsAndSeed) {
  EXPECT_THROW(parse({"--threads="}), std::runtime_error);
  EXPECT_THROW(parse({"--threads=0"}), std::runtime_error);
  EXPECT_THROW(parse({"--threads=abc"}), std::runtime_error);
  EXPECT_THROW(parse({"--threads=4x"}), std::runtime_error);
  EXPECT_THROW(parse({"--threads=-2"}), std::runtime_error);
  EXPECT_THROW(parse({"--threads=1000000"}), std::runtime_error);
  EXPECT_THROW(parse({"--seed="}), std::runtime_error);
  EXPECT_THROW(parse({"--seed=0"}), std::runtime_error);
  EXPECT_THROW(parse({"--seed=xyz"}), std::runtime_error);
  EXPECT_THROW(parse({"--seed=1.5"}), std::runtime_error);
}

TEST(Cli, ErrorMessagesNameTheFlag) {
  try {
    parse({"--episodes=abc"});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--episodes"), std::string::npos);
  }
}

TEST(Cli, ParsesJsonPath) {
  const CliOptions opt = parse({"--json=/tmp/out.json"});
  EXPECT_EQ(opt.json_path, "/tmp/out.json");
  EXPECT_THROW(parse({"--json="}), std::runtime_error);
}

TEST(Cli, ParsesSetOverrides) {
  const CliOptions opt = parse({"--set=dir.three_hop=true", "--set",
                                "amu.cache_words=8"});
  ASSERT_EQ(opt.sets.size(), 2u);
  EXPECT_EQ(opt.sets[0].first, "dir.three_hop");
  EXPECT_EQ(opt.sets[0].second, "true");
  EXPECT_EQ(opt.sets[1].first, "amu.cache_words");
  EXPECT_EQ(opt.sets[1].second, "8");
  EXPECT_THROW(parse({"--set=novalue"}), std::runtime_error);
  EXPECT_THROW(parse({"--set==5"}), std::runtime_error);
  EXPECT_THROW(parse({"--set=key="}), std::runtime_error);
  EXPECT_THROW(parse({"--set"}), std::runtime_error);
}

TEST(Cli, ParsesConfigPath) {
  const CliOptions opt = parse({"--config=/tmp/cfg.json"});
  EXPECT_EQ(opt.config_path, "/tmp/cfg.json");
  EXPECT_THROW(parse({"--config="}), std::runtime_error);
}

// Regression: base_config() used to apply only --seed; --config and
// --set were accepted by some mains and silently dropped by others.
TEST(BaseConfig, AppliesConfigFileSetsAndSeedInOrder) {
  const std::string path = ::testing::TempDir() + "base_config_test.json";
  {
    std::ofstream out(path);
    out << R"({"seed": 7, "dir": {"occupancy_cycles": 21}})";
  }
  CliOptions opt;
  opt.config_path = path;
  opt.sets.emplace_back("amu.cache_words", "16");
  opt.sets.emplace_back("seed", "8");  // overrides the file...
  opt.seed = 99;                       // ...and --seed overrides --set
  const core::SystemConfig cfg = base_config(opt);
  EXPECT_EQ(cfg.dir.occupancy_cycles, 21u);
  EXPECT_EQ(cfg.amu.cache_words, 16u);
  EXPECT_EQ(cfg.seed, 99u);
  std::remove(path.c_str());
}

TEST(BaseConfig, RejectsUnknownKeysAndInvalidResults) {
  CliOptions bad_key;
  bad_key.sets.emplace_back("dir.occupnacy", "3");
  EXPECT_THROW((void)base_config(bad_key), core::ConfigError);
  CliOptions bad_value;
  bad_value.sets.emplace_back("amu.cache_words", "0");
  EXPECT_THROW((void)base_config(bad_value), core::ConfigError);
  CliOptions missing_file;
  missing_file.config_path = "/no/such/config.json";
  EXPECT_THROW((void)base_config(missing_file), std::runtime_error);
}

TEST(PaperCpuCounts, MatchesPaperAxes) {
  EXPECT_EQ(paper_cpu_counts(4),
            (std::vector<std::uint32_t>{4, 8, 16, 32, 64, 128, 256}));
  EXPECT_EQ(paper_cpu_counts(16),
            (std::vector<std::uint32_t>{16, 32, 64, 128, 256}));
}

TEST(Runner, BarrierResultIsConsistent) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  const CellResult r = run_cell(cfg, barrier_params(4));
  EXPECT_GT(r.primary, 0.0);
  EXPECT_DOUBLE_EQ(r.secondary, r.primary / 8.0);
  EXPECT_GT(r.traffic.packets, 0u);
}

TEST(Runner, LockResultIsConsistent) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  const CellResult r = run_cell(cfg, lock_params(3));
  EXPECT_GT(r.primary, 0.0);
  EXPECT_DOUBLE_EQ(r.secondary, r.primary / (8.0 * 3.0));
}

TEST(Reporter, InactiveWithoutJsonPath) {
  CliOptions opt;  // no --json
  JsonReporter rep(opt, "unit");
  EXPECT_FALSE(rep.active());
  EXPECT_EQ(JsonReporter::current(), &rep);
  sim::Json rec = sim::Json::object();
  rec["x"] = 1;
  rep.add(std::move(rec));
  EXPECT_EQ(rep.records().size(), 0u);  // inactive: records are dropped
}

TEST(Reporter, RunBarrierFeedsRecordsWithRegistryDump) {
  CliOptions opt;
  opt.json_path = ::testing::TempDir() + "harness_reporter_test.json";
  {
    JsonReporter rep(opt, "unit_barrier");
    core::SystemConfig cfg;
    cfg.num_cpus = 8;
    CellParams params = barrier_params(2);
    params.mech = sync::Mechanism::kAmo;
    (void)run_cell(cfg, params);

    ASSERT_EQ(rep.records().size(), 1u);
    const sim::Json& rec = rep.records()[0];
    EXPECT_EQ(rec.at("workload").as_string(), "barrier");
    EXPECT_EQ(rec.at("cpus").as_uint(), 8u);
    EXPECT_EQ(rec.at("mechanism").as_string(), "AMO");
    EXPECT_GT(rec.at("cycles_per_barrier").as_double(), 0.0);
    EXPECT_GT(rec.at("traffic").at("packets").as_uint(), 0u);
    // The registry dump reaches down to per-node AMU counters.
    const sim::Json* amo_ops = rec.at("registry").find_path("node0.amu.ops");
    ASSERT_NE(amo_ops, nullptr);
    EXPECT_GT(amo_ops->as_uint(), 0u);
    EXPECT_NE(rec.at("registry").find_path("net.packets"), nullptr);
    EXPECT_NE(rec.at("registry").find_path("cpu0.cache.l2.hits"), nullptr);
  }
  // Destructor wrote the document; it must parse and carry the record.
  std::ifstream in(opt.json_path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const sim::Json doc = sim::Json::parse(ss.str());
  EXPECT_EQ(doc.at("bench").as_string(), "unit_barrier");
  EXPECT_EQ(doc.at("schema_version").as_uint(), 3u);
  EXPECT_EQ(doc.at("records").size(), 1u);
  std::remove(opt.json_path.c_str());
}

// Schema v3: the hierarchy and service records, which used to carry the
// parallel engine's thread count, and every record's config object are
// written without it.
TEST(Reporter, SchemaV3RecordsCarryNoSimThreads) {
  CliOptions opt;
  opt.json_path = ::testing::TempDir() + "harness_schema_v3_test.json";
  {
    JsonReporter rep(opt, "unit_schema");
    core::SystemConfig cfg;
    cfg.num_cpus = 8;
    (void)run_cell(cfg, barrier_params(2));
    CellParams hier = barrier_params(2);
    hier.kernel = Kernel::kHier;
    hier.mech = sync::Mechanism::kAmo;
    (void)run_cell(cfg, hier);
    CellParams service;
    service.kernel = Kernel::kService;
    service.mech = sync::Mechanism::kAmo;
    service.requests = 4;
    (void)run_cell(cfg, service);
    rep.write();
  }
  std::ifstream in(opt.json_path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const sim::Json doc = sim::Json::parse(ss.str());
  EXPECT_EQ(doc.at("schema_version").as_uint(), 3u);
  const sim::Json& recs = doc.at("records");
  ASSERT_EQ(recs.size(), 3u);
  const char* workloads[] = {"barrier", "microbench_hier", "service"};
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const sim::Json& rec = recs[i];
    EXPECT_EQ(rec.at("workload").as_string(), workloads[i]);
    EXPECT_EQ(rec.find("sim_threads"), nullptr) << workloads[i];
    if (const sim::Json* config = rec.find("config")) {
      EXPECT_EQ(config->find("sim_threads"), nullptr) << workloads[i];
    }
  }
  std::remove(opt.json_path.c_str());
}

TEST(Reporter, RunLockFeedsRecords) {
  CliOptions opt;
  opt.json_path = ::testing::TempDir() + "harness_lock_test.json";
  {
    JsonReporter rep(opt, "unit_lock");
    core::SystemConfig cfg;
    cfg.num_cpus = 4;
    (void)run_cell(cfg, lock_params(2));
    ASSERT_EQ(rep.records().size(), 1u);
    const sim::Json& rec = rep.records()[0];
    EXPECT_EQ(rec.at("workload").as_string(), "lock");
    EXPECT_EQ(rec.at("lock").as_string(), "ticket");
    EXPECT_GT(rec.at("total_cycles").as_double(), 0.0);
  }
  std::remove(opt.json_path.c_str());
}

TEST(Runner, DeterministicAcrossCalls) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  EXPECT_DOUBLE_EQ(run_cell(cfg, barrier_params(4)).primary,
                   run_cell(cfg, barrier_params(4)).primary);
}

TEST(Sweep, RunsEveryTaskOnceAndClears) {
  std::atomic<int> ran{0};
  SweepRunner sweep(4);
  for (int i = 0; i < 10; ++i) {
    sweep.add([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(sweep.pending(), 10u);
  sweep.run();
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(sweep.pending(), 0u);
  sweep.run();  // empty run is a no-op
  EXPECT_EQ(ran.load(), 10);
}

TEST(Sweep, FlushesRecordsInTaskOrderAcrossWorkers) {
  CliOptions opt;
  opt.json_path = ::testing::TempDir() + "sweep_order_test.json";
  JsonReporter rep(opt, "sweep_order");
  SweepRunner sweep(4);
  constexpr int kTasks = 24;
  for (int i = 0; i < kTasks; ++i) {
    sweep.add([i] {
      sim::Json rec = sim::Json::object();
      rec["task"] = static_cast<std::uint64_t>(i);
      JsonReporter::current()->add(std::move(rec));
    });
  }
  sweep.run();
  ASSERT_EQ(rep.records().size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(rep.records()[static_cast<std::size_t>(i)].at("task").as_uint(),
              static_cast<std::uint64_t>(i));
  }
  std::remove(opt.json_path.c_str());
}

// The PR's headline determinism property: a parallel sweep produces the
// byte-identical record stream of a serial one, because each run owns its
// Machine and records are flushed in task order.
TEST(Sweep, ParallelBarrierSweepMatchesSerialByteForByte) {
  const std::vector<std::uint32_t> cpus{4, 8};
  const std::vector<sync::Mechanism> mechs{sync::Mechanism::kLlSc,
                                           sync::Mechanism::kAmo};
  auto dump_sweep = [&](unsigned threads) {
    CliOptions opt;
    opt.json_path =
        ::testing::TempDir() + "sweep_det_" + std::to_string(threads) + ".json";
    JsonReporter rep(opt, "sweep_det");
    SweepRunner sweep(threads);
    for (std::uint32_t p : cpus) {
      for (sync::Mechanism m : mechs) {
        sweep.add([p, m] {
          core::SystemConfig cfg;
          cfg.num_cpus = p;
          CellParams params = barrier_params(2);
          params.mech = m;
          (void)run_cell(cfg, params);
        });
      }
    }
    sweep.run();
    std::string dump = rep.records().dump(2);
    std::remove(opt.json_path.c_str());
    return dump;
  };
  const std::string serial = dump_sweep(1);
  EXPECT_EQ(serial, dump_sweep(4));
  // And re-running the identical serial sweep reproduces it exactly.
  EXPECT_EQ(serial, dump_sweep(1));
}

}  // namespace
}  // namespace amo::bench
