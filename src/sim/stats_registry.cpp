#include "sim/stats_registry.hpp"

#include <stdexcept>
#include <utility>

namespace amo::sim {

namespace {

Json accum_json(const Accum& a) {
  Json j = Json::object();
  j["count"] = a.count();
  j["sum"] = a.sum();
  j["min"] = a.min();
  j["max"] = a.max();
  j["mean"] = a.mean();
  j["stddev"] = a.stddev();
  return j;
}

Json hist_json(const LogHistogram& h) {
  Json j = Json::object();
  j["count"] = h.count();
  j["sum"] = h.sum();
  j["min"] = h.min();
  j["max"] = h.max();
  j["mean"] = h.mean();
  j["p50"] = h.quantile(0.50);
  j["p90"] = h.quantile(0.90);
  j["p99"] = h.quantile(0.99);
  j["p999"] = h.quantile(0.999);
  return j;
}

}  // namespace

void StatsRegistry::add(const std::string& name, Source source) {
  if (names_.contains(std::string_view{name})) {
    throw std::logic_error("StatsRegistry: duplicate name '" + name + "'");
  }
  entries_.push_back(Entry{name, std::move(source)});
  names_.insert(std::string_view{entries_.back().name});
}

void StatsRegistry::add_counter(const std::string& name,
                                const std::uint64_t* counter) {
  add(name, Source(std::in_place_type<const std::uint64_t*>, counter));
}

void StatsRegistry::add_accum(const std::string& name, const Accum* accum) {
  add(name, Source(std::in_place_type<const Accum*>, accum));
}

void StatsRegistry::add_hist(const std::string& name,
                             const LogHistogram* hist) {
  add(name, Source(std::in_place_type<const LogHistogram*>, hist));
}

Json StatsRegistry::read(const Entry& e) {
  struct Reader {
    Json operator()(const std::uint64_t* p) const { return Json(*p); }
    Json operator()(const Accum* p) const { return accum_json(*p); }
    Json operator()(const LogHistogram* p) const { return hist_json(*p); }
    Json operator()(InlineFnT<std::uint64_t&>& fn) const {
      std::uint64_t out = 0;
      fn(out);
      return Json(out);
    }
  };
  return std::visit(Reader{}, e.source);
}

Json StatsRegistry::value(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return read(e);
  }
  throw std::out_of_range("StatsRegistry: no entry named '" + name + "'");
}

Json StatsRegistry::snapshot() const {
  Json root = Json::object();
  for (const Entry& e : entries_) {
    Json* node = &root;
    std::size_t start = 0;
    while (true) {
      const std::size_t dot = e.name.find('.', start);
      if (dot == std::string::npos) {
        (*node)[e.name.substr(start)] = read(e);
        break;
      }
      node = &(*node)[e.name.substr(start, dot - start)];
      start = dot + 1;
    }
  }
  return root;
}

}  // namespace amo::sim
