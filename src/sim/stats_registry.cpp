#include "sim/stats_registry.hpp"

#include <span>
#include <stdexcept>
#include <string_view>
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

Json field_json(const std::byte* base, const StatField& f) {
  const std::byte* p = base + f.offset;
  if (f.kind == StatField::Kind::kAccum) {
    return accum_json(*reinterpret_cast<const Accum*>(p));
  }
  return Json(*reinterpret_cast<const std::uint64_t*>(p));
}

// Sets each field of the struct at `base` as a member of `obj`, in table
// order; the full names exist only here, while a dump is built.
void put_fields(Json& obj, const std::byte* base,
                std::span<const StatField> fields) {
  for (const StatField& f : fields) {
    obj[std::string(f.suffix)] = field_json(base, f);
  }
}

[[noreturn]] void throw_duplicate(std::string_view name) {
  throw std::logic_error("StatsRegistry: duplicate name '" +
                         std::string(name) + "'");
}

}  // namespace

void StatsRegistry::add(std::string name, Source source) {
  const Group* group = std::get_if<Group>(&source);
  if (const auto it = names_.find(name); it != names_.end()) {
    if (it->second != nullptr) throw_duplicate(name);
    // Only the parent of single names: a group may take that name when
    // none of its fields is one of them.
    if (group != nullptr) {
      for (const StatField& f : group->fields) {
        std::string field = name + '.';
        field += f.suffix;
        if (names_.contains(field)) throw_duplicate(field);
      }
    }
  }
  if (find_field(name).field != nullptr) throw_duplicate(name);
  const Entry& e = entries_.emplace_back(Entry{std::move(name),
                                               std::move(source)});
  const std::string_view key{e.name};
  names_.insert_or_assign(key, &e);
  const std::size_t dot = key.rfind('.');
  if (group == nullptr && dot != std::string_view::npos) {
    names_.try_emplace(key.substr(0, dot), nullptr);
  }
}

StatsRegistry::FieldRef StatsRegistry::find_field(
    std::string_view name) const {
  const std::size_t dot = name.rfind('.');
  if (dot == std::string_view::npos) return {};
  const auto it = names_.find(name.substr(0, dot));
  if (it == names_.end() || it->second == nullptr) return {};
  const auto* group = std::get_if<Group>(&it->second->source);
  if (group == nullptr) return {};
  const std::string_view suffix = name.substr(dot + 1);
  for (const StatField& f : group->fields) {
    if (f.suffix == suffix) return {group->base, &f};
  }
  return {};
}

void StatsRegistry::add_counter(const std::string& name,
                                const std::uint64_t* counter) {
  add(name, Source(std::in_place_type<const std::uint64_t*>, counter));
}

void StatsRegistry::add_accum(const std::string& name, const Accum* accum) {
  add(name, Source(std::in_place_type<const Accum*>, accum));
}

LogHistogram* StatsRegistry::hist(const std::string& name) {
  if (!histograms_) return nullptr;
  LogHistogram* h = &hists_.emplace_back();
  add(name, Source(std::in_place_type<const LogHistogram*>, h));
  return h;
}

Json StatsRegistry::read(const Entry& e) {
  struct Reader {
    Json operator()(const std::uint64_t* p) const { return Json(*p); }
    Json operator()(const Accum* p) const { return accum_json(*p); }
    Json operator()(const LogHistogram* p) const { return hist_json(*p); }
    Json operator()(const Group& g) const {
      Json j = Json::object();
      put_fields(j, g.base, g.fields);
      return j;
    }
    Json operator()(InlineFnT<std::uint64_t&>& fn) const {
      std::uint64_t out = 0;
      fn(out);
      return Json(out);
    }
  };
  return std::visit(Reader{}, e.source);
}

Json StatsRegistry::value(const std::string& name) const {
  if (const auto it = names_.find(name);
      it != names_.end() && it->second != nullptr) {
    return read(*it->second);
  }
  if (const FieldRef ref = find_field(name); ref.field != nullptr) {
    return field_json(ref.base, *ref.field);
  }
  throw std::out_of_range("StatsRegistry: no entry named '" + name + "'");
}

Json StatsRegistry::snapshot() const {
  Json root = Json::object();
  for (const Entry& e : entries_) {
    Json* node = &root;
    std::size_t start = 0;
    for (std::size_t dot; (dot = e.name.find('.', start)) != std::string::npos;
         start = dot + 1) {
      node = &(*node)[e.name.substr(start, dot - start)];
    }
    Json& leaf = (*node)[e.name.substr(start)];
    // A group's fields join whatever its prefix already holds, so names
    // registered under the prefix before the group keep their place.
    if (const auto* group = std::get_if<Group>(&e.source)) {
      put_fields(leaf, group->base, group->fields);
    } else {
      leaf = read(e);
    }
  }
  return root;
}

}  // namespace amo::sim
