// SystemConfig as data: JSON round-tripping, dotted-path overrides, and
// validation. One field table (visit_config_fields) is the single source
// of truth — to_json/apply_json/set_field/config_field_names all derive
// from it, so adding a knob to the table makes it serializable,
// overridable from the command line, and covered by the round-trip tests
// in one step.
//
// `net.num_nodes` is deliberately absent: Machine derives it from
// num_cpus / cpus_per_node, and serializing it would let a config file
// desynchronize the two.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/system_config.hpp"
#include "sim/json.hpp"

namespace amo::core {

/// Thrown by apply_json/set_field/validate; the message always begins
/// with the dotted field name it is complaining about.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// Calls v(dotted_path, field_ref) for every serializable knob, in the
/// order they appear in config files. Field types are std::uint32_t,
/// std::uint64_t (sim::Cycle, seed), and bool.
template <typename Config, typename Visitor>
void visit_config_fields(Config& c, Visitor&& v) {
  v("num_cpus", c.num_cpus);
  v("cpus_per_node", c.cpus_per_node);
  v("cache.l1.size_bytes", c.cache.l1.size_bytes);
  v("cache.l1.ways", c.cache.l1.ways);
  v("cache.l1.line_bytes", c.cache.l1.line_bytes);
  v("cache.l2.size_bytes", c.cache.l2.size_bytes);
  v("cache.l2.ways", c.cache.l2.ways);
  v("cache.l2.line_bytes", c.cache.l2.line_bytes);
  v("cache.l1_cycles", c.cache.l1_cycles);
  v("cache.l2_cycles", c.cache.l2_cycles);
  v("cache.atomic_cycles", c.cache.atomic_cycles);
  v("cache.probe_resp_cycles", c.cache.probe_resp_cycles);
  v("dram.access_cycles", c.dram.access_cycles);
  v("net.radix", c.net.radix);
  v("net.hop_cycles", c.net.hop_cycles);
  v("net.hop_cycles_per_level", c.net.hop_cycles_per_level);
  v("net.link_cycles_per_16b", c.net.link_cycles_per_16b);
  v("net.min_packet_bytes", c.net.min_packet_bytes);
  v("net.hardware_multicast", c.net.hardware_multicast);
  v("dir.occupancy_cycles", c.dir.occupancy_cycles);
  v("dir.uncached_occupancy_cycles", c.dir.uncached_occupancy_cycles);
  v("dir.put_block_granularity", c.dir.put_block_granularity);
  v("dir.three_hop", c.dir.three_hop);
  v("dir.sharer_pointer_limit", c.dir.sharer_pointer_limit);
  v("dir.grant_exclusive_clean", c.dir.grant_exclusive_clean);
  v("amu.cache_words", c.amu.cache_words);
  v("amu.op_cycles", c.amu.op_cycles);
  v("amu.eager_put_all", c.amu.eager_put_all);
  v("am_server.invoke_cycles", c.am_server.invoke_cycles);
  v("am_server.handler_cycles", c.am_server.handler_cycles);
  v("am_timeout_cycles", c.am_timeout_cycles);
  v("hier.levels", c.hier.levels);
  v("hier.cna_threshold", c.hier.cna_threshold);
  v("hier.hmcs_threshold", c.hier.hmcs_threshold);
  v("service.shards", c.service.shards);
  v("service.queue_capacity", c.service.queue_capacity);
  v("service.work_cycles", c.service.work_cycles);
  v("service.key_space", c.service.key_space);
  v("service.interarrival_cycles", c.service.interarrival_cycles);
  v("stats.histograms", c.stats.histograms);
  v("local_cycles", c.local_cycles);
  v("bus_cycles", c.bus_cycles);
  v("barrier_sw_overhead", c.barrier_sw_overhead);
  v("lock_sw_overhead", c.lock_sw_overhead);
  v("seed", c.seed);
}

/// Every knob as a nested JSON object ({"cache": {"l1": {...}}}).
[[nodiscard]] sim::Json to_json(const SystemConfig& cfg);

/// Applies a (possibly partial) override object. Keys may be nested
/// objects or dotted strings ("dir.occupancy_cycles"); both spellings
/// compose. Unknown keys and type mismatches throw ConfigError naming
/// the field and listing candidates.
void apply_json(SystemConfig& cfg, const sim::Json& overrides);

/// Defaults + apply_json: parse(dump(cfg)) == cfg.
[[nodiscard]] SystemConfig config_from_json(const sim::Json& j);

/// Dotted-path override with a JSON value ("dir.three_hop" = true).
void set_field(SystemConfig& cfg, std::string_view dotted,
               const sim::Json& value);
/// Dotted-path override from command-line text ("--set seed=42"): bools
/// accept true/false/1/0, numbers must be non-negative decimal.
void set_field(SystemConfig& cfg, std::string_view dotted,
               std::string_view value);

/// The dotted paths of every knob, in table order.
[[nodiscard]] std::vector<std::string> config_field_names();

/// Rejects inconsistent knob combinations (zero CPUs, non-power-of-two
/// line words, over-wide caches, ...) with a ConfigError whose message
/// names the offending field.
void validate(const SystemConfig& cfg);

}  // namespace amo::core
