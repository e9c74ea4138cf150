#include "core/config_io.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>

namespace amo::core {

namespace {

[[nodiscard]] bool power_of_two(std::uint64_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

/// "cache.l1.size_bytes" -> inserts into nested objects of `root`.
void insert_nested(sim::Json& root, std::string_view dotted, sim::Json value) {
  sim::Json* node = &root;
  while (true) {
    const std::size_t dot = dotted.find('.');
    if (dot == std::string_view::npos) {
      (*node)[std::string(dotted)] = std::move(value);
      return;
    }
    node = &(*node)[std::string(dotted.substr(0, dot))];
    dotted.remove_prefix(dot + 1);
  }
}

[[noreturn]] void unknown_key(std::string_view dotted) {
  // Candidate list: fields sharing the first path segment if any do,
  // otherwise every field. This is what `--set` errors print.
  const std::string key(dotted);
  const std::string_view head = dotted.substr(0, dotted.find('.'));
  std::string close;
  std::string all;
  for (const std::string& name : config_field_names()) {
    all += all.empty() ? name : ", " + name;
    if (std::string_view(name).substr(0, name.find('.')) == head) {
      close += close.empty() ? name : ", " + name;
    }
  }
  throw ConfigError(key + ": unknown config key; candidates: " +
                    (close.empty() ? all : close));
}

/// Assigns `value` into the field matching `dotted`, with per-type
/// checking; the error messages lead with the field name.
struct Assign {
  std::string_view dotted;
  const sim::Json* value;
  bool done = false;

  void check(const char* name, bool ok, const char* what) const {
    if (!ok) throw ConfigError(std::string(name) + ": expected " + what);
  }
  void operator()(const char* name, bool& field) {
    if (dotted != name) return;
    check(name, value->is_bool(), "a bool");
    field = value->as_bool();
    done = true;
  }
  void operator()(const char* name, std::uint32_t& field) {
    if (dotted != name) return;
    check(name, value->is_number(), "a number");
    const std::uint64_t v = as_uint_or_throw(name);
    check(name, v <= std::numeric_limits<std::uint32_t>::max(),
          "a value that fits in 32 bits");
    field = static_cast<std::uint32_t>(v);
    done = true;
  }
  void operator()(const char* name, std::uint64_t& field) {
    if (dotted != name) return;
    check(name, value->is_number(), "a number");
    field = as_uint_or_throw(name);
    done = true;
  }
  [[nodiscard]] std::uint64_t as_uint_or_throw(const char* name) const {
    try {
      return value->as_uint();
    } catch (const std::exception&) {
      throw ConfigError(std::string(name) +
                        ": expected a non-negative integer, got " +
                        value->dump());
    }
  }
};

/// Flattens an override object (nested and/or dotted keys) into
/// set_field calls.
void apply_object(SystemConfig& cfg, const sim::Json& obj,
                  const std::string& prefix) {
  if (!obj.is_object()) {
    throw ConfigError((prefix.empty() ? std::string("config") : prefix) +
                      ": expected an object");
  }
  for (const auto& [key, value] : obj.items()) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    if (value.is_object()) {
      apply_object(cfg, value, path);
    } else {
      set_field(cfg, path, value);
    }
  }
}

}  // namespace

sim::Json to_json(const SystemConfig& cfg) {
  sim::Json j = sim::Json::object();
  visit_config_fields(cfg, [&j](const char* name, const auto& field) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>,
                                 bool>) {
      insert_nested(j, name, sim::Json(field));
    } else {
      insert_nested(j, name, sim::Json(static_cast<std::uint64_t>(field)));
    }
  });
  return j;
}

void set_field(SystemConfig& cfg, std::string_view dotted,
               const sim::Json& value) {
  Assign assign{dotted, &value};
  visit_config_fields(cfg, assign);
  if (!assign.done) unknown_key(dotted);
}

void set_field(SystemConfig& cfg, std::string_view dotted,
               std::string_view value) {
  // Find the field's type first so text parses per-type: "true" is a
  // valid bool but never a valid number.
  const std::string text(value);
  bool is_bool_field = false;
  bool found = false;
  visit_config_fields(cfg, [&](const char* name, auto& field) {
    if (dotted != name) return;
    found = true;
    is_bool_field =
        std::is_same_v<std::remove_cvref_t<decltype(field)>, bool>;
  });
  if (!found) unknown_key(dotted);

  if (is_bool_field) {
    if (text == "true" || text == "1") {
      set_field(cfg, dotted, sim::Json(true));
    } else if (text == "false" || text == "0") {
      set_field(cfg, dotted, sim::Json(false));
    } else {
      throw ConfigError(std::string(dotted) +
                        ": expected true/false/1/0, got '" + text + "'");
    }
    return;
  }
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw ConfigError(std::string(dotted) +
                      ": expected a non-negative integer, got '" + text + "'");
  }
  errno = 0;
  const std::uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    throw ConfigError(std::string(dotted) + ": value out of range");
  }
  set_field(cfg, dotted, sim::Json(v));
}

void apply_json(SystemConfig& cfg, const sim::Json& overrides) {
  apply_object(cfg, overrides, "");
}

SystemConfig config_from_json(const sim::Json& j) {
  SystemConfig cfg;
  apply_json(cfg, j);
  return cfg;
}

std::vector<std::string> config_field_names() {
  std::vector<std::string> names;
  SystemConfig cfg;
  visit_config_fields(cfg, [&names](const char* name, const auto&) {
    names.emplace_back(name);
  });
  return names;
}

void validate(const SystemConfig& c) {
  auto fail = [](const std::string& field, const std::string& msg) {
    throw ConfigError(field + ": " + msg);
  };
  if (c.num_cpus == 0) fail("num_cpus", "machine needs at least one CPU");
  if (c.num_cpus > (1u << 20)) {
    fail("num_cpus", "must be at most 2^20");
  }
  if (c.cpus_per_node == 0) {
    fail("cpus_per_node", "nodes need at least one CPU");
  }
  auto check_cache = [&](const char* prefix, const mem::CacheGeometry& g) {
    const std::string p(prefix);
    if (g.line_bytes < 8 || !power_of_two(g.line_bytes)) {
      fail(p + ".line_bytes",
           "line words must be a non-zero power of two (line_bytes a "
           "power of two >= 8), got " + std::to_string(g.line_bytes));
    }
    if (g.ways == 0 || g.ways > 8) {
      fail(p + ".ways", "must be in [1, 8] (the cache tracks ways in a "
                        "one-byte mask), got " + std::to_string(g.ways));
    }
    if (g.size_bytes == 0 || g.size_bytes % (g.ways * g.line_bytes) != 0) {
      fail(p + ".size_bytes",
           "must be a non-zero multiple of ways * line_bytes");
    }
    if (!power_of_two(g.num_sets())) {
      fail(p + ".size_bytes", "number of sets must be a power of two");
    }
  };
  check_cache("cache.l1", c.cache.l1);
  check_cache("cache.l2", c.cache.l2);
  if (c.cache.l1.line_bytes != c.cache.l2.line_bytes) {
    fail("cache.l1.line_bytes",
         "must match cache.l2.line_bytes (inclusive L1 filters L2 lines)");
  }
  if (c.net.radix < 2) {
    fail("net.radix", "fat-tree routers need radix >= 2");
  }
  if (c.net.link_cycles_per_16b == 0) {
    fail("net.link_cycles_per_16b", "serialization cost must be non-zero");
  }
  if (c.net.min_packet_bytes == 0) {
    fail("net.min_packet_bytes", "packets cannot be zero-sized");
  }
  if (c.amu.cache_words == 0) {
    fail("amu.cache_words", "the AMU cache needs at least one word");
  }
  if (c.dram.access_cycles == 0) {
    fail("dram.access_cycles", "DRAM access cannot be free");
  }
  if (c.net.hop_cycles_per_level != 0 && c.net.hop_cycles == 0) {
    fail("net.hop_cycles_per_level",
         "per-level latency step needs a non-zero net.hop_cycles base "
         "(level-0 links would be free)");
  }
  // Height of the fat tree Machine will derive: router levels above the
  // nodes. The hierarchical mechanisms map their clusters onto these
  // levels, so a deeper hierarchy than the tree is a config error.
  const std::uint32_t height =
      net::Topology(c.num_nodes(), c.net.radix).levels();
  if (c.hier.levels == 0) {
    fail("hier.levels", "cluster hierarchy needs at least one level");
  }
  if (c.hier.levels > height && !(height == 0 && c.hier.levels == 1)) {
    fail("hier.levels",
         "exceeds the tree height (" + std::to_string(height) +
             " router level(s) at num_cpus=" + std::to_string(c.num_cpus) +
             ", cpus_per_node=" + std::to_string(c.cpus_per_node) +
             ", net.radix=" + std::to_string(c.net.radix) + ")");
  }
  if (c.hier.cna_threshold == 0) {
    fail("hier.cna_threshold",
         "the CNA starvation bound must be non-zero (remote waiters "
         "would never be spliced back)");
  }
  if (c.hier.hmcs_threshold == 0) {
    fail("hier.hmcs_threshold",
         "the HMCS per-level passing threshold must be non-zero");
  }
  if (c.service.shards == 0) {
    fail("service.shards", "the service needs at least one shard");
  }
  if (c.service.queue_capacity == 0) {
    fail("service.queue_capacity",
         "each shard queue needs at least one slot");
  }
  if (c.service.key_space == 0) {
    fail("service.key_space", "requests need at least one key to pick");
  }
  if (c.service.interarrival_cycles == 0) {
    fail("service.interarrival_cycles",
         "the mean interarrival gap must be non-zero (arrival rate would "
         "be infinite)");
  }
  // An active message whose timer fires before any reply can arrive
  // retransmits forever. Its fastest reply is a replay from the server's
  // dedup cache: a word request and a word reply on an idle machine, here
  // between the two farthest nodes (or within the one node).
  net::NetConfig fabric = c.net;
  fabric.num_nodes = c.num_nodes();
  const sim::Cycle one_way =
      fabric.num_nodes == 1
          ? c.local_cycles
          : net::Network::diameter_cycles(fabric, coh::MsgSizes::word()) +
                2 * c.bus_cycles;
  if (c.am_timeout_cycles <= 2 * one_way) {
    fail("am_timeout_cycles",
         "must exceed the unloaded word round trip between the farthest "
         "nodes (" + std::to_string(2 * one_way) + " cycles), or no reply "
         "can beat the timer; got " + std::to_string(c.am_timeout_cycles));
  }
}

}  // namespace amo::core
