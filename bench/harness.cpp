#include "bench/harness.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/config_io.hpp"

namespace amo::bench {

core::SystemConfig base_config(const CliOptions& opt) {
  core::SystemConfig cfg;
  if (!opt.config_path.empty()) {
    std::ifstream in(opt.config_path);
    if (!in) {
      throw std::runtime_error("--config: cannot open '" + opt.config_path +
                               "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    core::apply_json(cfg, sim::Json::parse(text.str()));
  }
  for (const auto& [key, value] : opt.sets) {
    core::set_field(cfg, key, std::string_view(value));
  }
  if (opt.seed != 0) cfg.seed = opt.seed;
  core::validate(cfg);
  return cfg;
}

std::vector<std::uint32_t> paper_cpu_counts(std::uint32_t min_cpus) {
  std::vector<std::uint32_t> all{4, 8, 16, 32, 64, 128, 256};
  std::vector<std::uint32_t> out;
  for (std::uint32_t c : all) {
    if (c >= min_cpus) out.push_back(c);
  }
  return out;
}

namespace {

/// Parses the leading decimal digits of `s`; sets `*end` past them.
/// Throws when `s` does not start with a digit or the value overflows.
std::uint64_t parse_digits(const char* s, const char** end, const char* flag) {
  if (*s < '0' || *s > '9') {
    throw std::runtime_error(std::string(flag) + ": expected a number, got '" +
                             s + "'");
  }
  errno = 0;
  char* stop = nullptr;
  const unsigned long long v = std::strtoull(s, &stop, 10);
  if (errno == ERANGE) {
    throw std::runtime_error(std::string(flag) + ": value out of range");
  }
  *end = stop;
  return v;
}

/// Whole-string positive integer with an inclusive upper bound.
std::uint64_t parse_positive(const char* s, const char* flag,
                             std::uint64_t max) {
  const char* end = nullptr;
  const std::uint64_t v = parse_digits(s, &end, flag);
  if (*end != '\0') {
    throw std::runtime_error(std::string(flag) + ": trailing garbage in '" +
                             s + "'");
  }
  if (v == 0 || v > max) {
    throw std::runtime_error(std::string(flag) + ": value must be in [1, " +
                             std::to_string(max) + "]");
  }
  return v;
}

}  // namespace

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  constexpr std::uint64_t kMaxCpus = 1u << 20;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--cpus=", 7) == 0) {
      opt.cpus.clear();
      const char* p = a + 7;
      while (true) {
        const char* end = nullptr;
        const std::uint64_t v = parse_digits(p, &end, "--cpus");
        if (v == 0 || v > kMaxCpus) {
          throw std::runtime_error("--cpus: counts must be in [1, " +
                                   std::to_string(kMaxCpus) + "]");
        }
        opt.cpus.push_back(static_cast<std::uint32_t>(v));
        if (*end == '\0') break;
        if (*end != ',') {
          throw std::runtime_error(
              std::string("--cpus: malformed list '") + (a + 7) + "'");
        }
        p = end + 1;
      }
    } else if (std::strncmp(a, "--episodes=", 11) == 0) {
      opt.episodes = static_cast<int>(parse_positive(
          a + 11, "--episodes", std::numeric_limits<int>::max()));
    } else if (std::strncmp(a, "--iters=", 8) == 0) {
      opt.iters = static_cast<int>(
          parse_positive(a + 8, "--iters", std::numeric_limits<int>::max()));
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      // Cap well above any sane machine; the point is rejecting garbage.
      opt.threads =
          static_cast<unsigned>(parse_positive(a + 10, "--threads", 4096));
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      opt.seed = parse_positive(a + 7, "--seed",
                                std::numeric_limits<std::uint64_t>::max());
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      if (a[7] == '\0') {
        throw std::runtime_error("--json: requires a file path");
      }
      opt.json_path = a + 7;
    } else if (std::strncmp(a, "--config=", 9) == 0) {
      if (a[9] == '\0') {
        throw std::runtime_error("--config: requires a file path");
      }
      opt.config_path = a + 9;
    } else if (std::strncmp(a, "--set=", 6) == 0 ||
               std::strcmp(a, "--set") == 0) {
      const char* kv = a[5] == '=' ? a + 6 : (i + 1 < argc ? argv[++i] : "");
      const char* eq = std::strchr(kv, '=');
      if (eq == nullptr || eq == kv || eq[1] == '\0') {
        throw std::runtime_error(
            std::string("--set: expected key=value, got '") + kv + "'");
      }
      opt.sets.emplace_back(std::string(kv, eq), std::string(eq + 1));
    } else if (std::strcmp(a, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf(
          "options: --cpus=a,b,c  --episodes=N  --iters=N  --threads=N"
          "  --seed=N  --quick  --json=PATH"
          "  --config=FILE  --set KEY=VALUE\n");
      std::exit(0);
    } else {
      throw std::runtime_error(std::string("unknown option: ") + a);
    }
  }
  return opt;
}

CliOptions parse_cli_or_exit(int argc, char** argv) {
  try {
    return parse_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n(try --help)\n",
                 argc > 0 ? argv[0] : "bench", e.what());
    std::exit(2);
  }
}

namespace {
std::atomic<JsonReporter*> g_reporter{nullptr};
thread_local sim::Json* t_capture = nullptr;
}  // namespace

JsonReporter::JsonReporter(const CliOptions& opt, std::string bench_name)
    : path_(opt.json_path), name_(std::move(bench_name)) {
  JsonReporter* expected = nullptr;
  if (!g_reporter.compare_exchange_strong(expected, this)) {
    throw std::logic_error("JsonReporter: another reporter is already active");
  }
}

JsonReporter::~JsonReporter() {
  g_reporter.store(nullptr);
  try {
    write();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "JsonReporter: %s\n", e.what());
  }
}

JsonReporter* JsonReporter::current() { return g_reporter.load(); }

void JsonReporter::begin_capture(sim::Json* buffer) { t_capture = buffer; }

void JsonReporter::end_capture() { t_capture = nullptr; }

void JsonReporter::add(sim::Json record) {
  if (!active()) return;
  if (t_capture != nullptr) {
    t_capture->push_back(std::move(record));
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

void JsonReporter::write() {
  if (!active() || written_) return;
  written_ = true;
  sim::Json doc = sim::Json::object();
  doc["bench"] = name_;
  // v2: LogHistogram entries (count/sum/min/max/mean/p50/p90/p99/p999
  // objects) may appear in registry dumps; all v1 fields are unchanged.
  // v3: the deleted parallel engine's thread-count key left the
  // microbench_hier and service records and the record config objects.
  doc["schema_version"] = 3;
  doc["records"] = records_;
  std::ofstream out(path_, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open '" + path_ + "' for writing");
  }
  out << doc.dump(2) << '\n';
  if (!out.good()) {
    throw std::runtime_error("short write to '" + path_ + "'");
  }
}

void SweepRunner::run() {
  const std::size_t n = tasks_.size();
  std::vector<sim::Json> captured(n, sim::Json::array());

  auto run_one = [&](std::size_t i) {
    JsonReporter::begin_capture(&captured[i]);
    tasks_[i]();
    JsonReporter::end_capture();
  };

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        while (true) {
          const std::size_t i = next.fetch_add(1);
          if (i >= n) return;
          run_one(i);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Flush per-task buffers in queue order: the reporter sees the same
  // record sequence a serial run produces.
  JsonReporter* rep = JsonReporter::current();
  if (rep != nullptr) {
    for (const sim::Json& arr : captured) {
      for (std::size_t i = 0; i < arr.size(); ++i) rep->add(arr[i]);
    }
  }
  tasks_.clear();
}

}  // namespace amo::bench
