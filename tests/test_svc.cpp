// The sharded key-value service: request conservation, shard homing,
// mechanism coverage, and its sync-latency histograms.
#include <gtest/gtest.h>

#include <vector>

#include "core/machine.hpp"
#include "svc/service.hpp"
#include "sync/mechanism.hpp"

namespace amo {
namespace {

core::SystemConfig service_config(std::uint32_t cpus) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  cfg.stats.histograms = true;
  return cfg;
}

TEST(ShardedService, EveryRequestCountedOnce) {
  core::SystemConfig cfg = service_config(8);
  core::Machine m(cfg);
  svc::ShardedService service(m, sync::Mechanism::kAmo);
  const std::uint64_t per_cpu = 25;
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (std::uint64_t i = 0; i < per_cpu; ++i) {
        co_await service.handle(t, c * per_cpu + i);
      }
    });
  }
  m.run();
  std::uint64_t total = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    total = co_await service.total_ops(t);
  });
  m.run();
  EXPECT_EQ(total, 8u * per_cpu);
  m.check_coherence();
}

TEST(ShardedService, AllMechanismsHandleContendedTraffic) {
  for (sync::Mechanism mech : sync::kAllMechanisms) {
    core::SystemConfig cfg = service_config(8);
    core::Machine m(cfg);
    svc::ShardedService service(m, mech);
    for (sim::CpuId c = 0; c < 8; ++c) {
      m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
        for (int i = 0; i < 10; ++i) {
          // Everyone hammers the same shard: the contended path.
          co_await service.handle(t, 0);
        }
      });
    }
    m.run();
    std::uint64_t total = 0;
    m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
      total = co_await service.total_ops(t);
    });
    m.run();
    EXPECT_EQ(total, 80u) << sync::to_string(mech);
  }
}

TEST(ShardedService, ShardOfPartitionsTheKeySpace) {
  core::SystemConfig cfg = service_config(4);
  core::Machine m(cfg);
  svc::ShardedService service(m, sync::Mechanism::kAmo);
  EXPECT_EQ(service.num_shards(), cfg.service.shards);
  EXPECT_EQ(service.key_space(), cfg.service.key_space);
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(service.shard_of(k), k % cfg.service.shards);
  }
}

TEST(ShardedService, SyncHistogramsRecordServiceTraffic) {
  core::SystemConfig cfg = service_config(8);
  core::Machine m(cfg);
  svc::ShardedService service(m, sync::Mechanism::kLlSc);
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 5; ++i) co_await service.handle(t, c);
    });
  }
  m.run();
  const sim::Json snap = m.stats_json();
  // Each handle() takes the shard lock exactly once.
  EXPECT_EQ(snap.find_path("sync.lock_acquire_hist.count")->as_uint(),
            8u * 5u);
  EXPECT_GT(snap.find_path("node0.amu.queue_wait_hist.count")->as_uint(),
            0u);  // the log queue's AMOs
}

}  // namespace
}  // namespace amo
