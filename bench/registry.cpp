#include "bench/registry.hpp"

namespace amo::bench {

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry reg;
  return reg;
}

WorkloadRegistry::WorkloadRegistry() { register_builtin_workloads(*this); }

const Workload* WorkloadRegistry::find(std::string_view name) const {
  for (const Workload& w : workloads_) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::uint32_t> resolved_cpus(const CliOptions& opt,
                                         std::vector<std::uint32_t> dflt,
                                         std::vector<std::uint32_t> quick) {
  if (opt.quick && !quick.empty()) return quick;
  if (!opt.cpus.empty()) return opt.cpus;
  return dflt;
}

int resolved_episodes(const CliOptions& opt, int dflt) {
  return opt.episodes > 0 ? opt.episodes : dflt;
}

int resolved_iters(const CliOptions& opt, int dflt) {
  return opt.iters > 0 ? opt.iters : dflt;
}

}  // namespace amo::bench
