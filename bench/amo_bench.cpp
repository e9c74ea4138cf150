// amo_bench: the one bench driver. Every former tableN_*/figN_*/ablation_*
// binary is a registered workload; `run` executes any of them by name,
// `dump` prints the scenario JSON a run would execute, and
// `run --spec=FILE` executes a scenario file — so every experiment is
// reproducible from a serialized artifact.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "core/config_io.hpp"

namespace {

using namespace amo;

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: amo_bench <command> [options]\n"
      "commands:\n"
      "  list               show every workload (name, description)\n"
      "  run <name>...      run named workloads\n"
      "  run --spec=FILE    run scenario files\n"
      "  dump <name>        print the scenario JSON a run would execute\n"
      "  all                run every workload\n"
      "options: --cpus=a,b,c  --episodes=N  --iters=N  --threads=N"
      "  --seed=N  --quick  --json=PATH  --config=FILE  --set KEY=VALUE\n");
}

std::string candidate_names() {
  std::string names;
  for (const bench::Workload& w : bench::WorkloadRegistry::instance().all()) {
    names += names.empty() ? w.name : std::string(", ") + w.name;
  }
  return names;
}

/// out.json -> out.table2.json when one invocation writes several docs.
std::string json_path_for(const std::string& path, const std::string& name,
                          bool multiple) {
  if (path.empty() || !multiple) return path;
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + name;
  }
  return path.substr(0, dot) + "." + name + path.substr(dot);
}

core::SystemConfig spec_base_config(const bench::CliOptions& opt,
                                    const bench::SweepSpec& spec) {
  core::SystemConfig cfg = bench::base_config(opt);
  if (!spec.base_config.is_null()) {
    core::apply_json(cfg, spec.base_config);
    core::validate(cfg);
  }
  return cfg;
}

void run_one(const bench::Workload& w, const bench::CliOptions& opt,
             const std::string& json_path) {
  bench::CliOptions o = opt;
  o.json_path = json_path;
  bench::JsonReporter reporter(o, w.name);
  const bench::SweepSpec spec = w.build(o);
  const std::vector<bench::CellResult> results =
      bench::run_spec(spec, spec_base_config(o, spec), o.threads);
  w.print(spec, results);
  // Written here, not by the destructor, so a failed write reaches the
  // exit code.
  reporter.write();
}

void run_spec_file(const std::string& path, const bench::CliOptions& opt,
                   const std::string& json_path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("--spec: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  bench::SweepSpec spec;
  try {
    spec = bench::spec_from_json(sim::Json::parse(text.str()));
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  bench::CliOptions o = opt;
  o.json_path = json_path;
  bench::JsonReporter reporter(o, spec.bench_name);
  const std::vector<bench::CellResult> results =
      bench::run_spec(spec, spec_base_config(o, spec), o.threads);
  // A scenario that names a registered workload inherits its table format.
  const bench::Workload* w =
      spec.workload.empty()
          ? nullptr
          : bench::WorkloadRegistry::instance().find(spec.workload);
  if (w != nullptr) {
    w->print(spec, results);
  } else {
    bench::print_generic(spec, results);
  }
  reporter.write();
}

int run_driver(int argc, char** argv) {
  // Split argv into the command, workload names, --spec files, and the
  // shared sweep options (which parse_cli validates strictly).
  std::string command;
  std::vector<std::string> names;
  std::vector<std::string> specs;
  std::vector<char*> cli_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    char* a = argv[i];
    if (std::strncmp(a, "--spec=", 7) == 0) {
      if (a[7] == '\0') {
        std::fprintf(stderr, "--spec: requires a file path\n");
        return 2;
      }
      specs.emplace_back(a + 7);
    } else if (std::strcmp(a, "--help") == 0) {
      print_usage(stdout);
      return 0;
    } else if (a[0] == '-') {
      cli_args.push_back(a);
      // Bare `--set` consumes the following KEY=VALUE argument.
      if (std::strcmp(a, "--set") == 0 && i + 1 < argc) {
        cli_args.push_back(argv[++i]);
      }
    } else if (command.empty()) {
      command = a;
    } else {
      names.emplace_back(a);
    }
  }
  if (command.empty()) {
    print_usage(stderr);
    return 2;
  }

  const bench::CliOptions opt = bench::parse_cli_or_exit(
      static_cast<int>(cli_args.size()), cli_args.data());
  const bench::WorkloadRegistry& reg = bench::WorkloadRegistry::instance();

  if (command == "list") {
    std::printf("%-26s %s\n", "name", "description");
    for (const bench::Workload& w : reg.all()) {
      std::printf("%-26s %s\n", w.name, w.description);
    }
    return 0;
  }

  if (command == "dump") {
    if (names.size() != 1) {
      std::fprintf(stderr, "dump: expected exactly one workload name; "
                           "candidates: %s\n", candidate_names().c_str());
      return 2;
    }
    const bench::Workload* w = reg.find(names.front());
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'; candidates: %s\n",
                   names.front().c_str(), candidate_names().c_str());
      return 2;
    }
    std::printf("%s\n", bench::spec_to_json(w->build(opt)).dump(2).c_str());
    return 0;
  }

  if (command == "all") {
    const bool multiple = reg.all().size() > 1;
    for (const bench::Workload& w : reg.all()) {
      run_one(w, opt, json_path_for(opt.json_path, w.name, multiple));
    }
    return 0;
  }

  if (command != "run") {
    std::fprintf(stderr, "unknown command '%s'; candidates: list, run, "
                         "dump, all\n", command.c_str());
    return 2;
  }
  if (names.empty() && specs.empty()) {
    std::fprintf(stderr, "run: expected workload names or --spec=FILE; "
                         "candidates: %s\n", candidate_names().c_str());
    return 2;
  }
  std::vector<const bench::Workload*> chosen;
  for (const std::string& n : names) {
    const bench::Workload* w = reg.find(n);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'; candidates: %s\n",
                   n.c_str(), candidate_names().c_str());
      return 2;
    }
    chosen.push_back(w);
  }
  const bool multiple = chosen.size() + specs.size() > 1;
  for (const bench::Workload* w : chosen) {
    run_one(*w, opt, json_path_for(opt.json_path, w->name, multiple));
  }
  for (const std::string& path : specs) {
    std::string stem = path;
    if (const std::size_t slash = stem.rfind('/');
        slash != std::string::npos) {
      stem = stem.substr(slash + 1);
    }
    if (const std::size_t dot = stem.rfind('.'); dot != std::string::npos) {
      stem = stem.substr(0, dot);
    }
    run_spec_file(path, opt, json_path_for(opt.json_path, stem, multiple));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_driver(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amo_bench: %s\n", e.what());
    return 2;
  }
}
