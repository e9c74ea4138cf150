// Benchmark plumbing shared by every workload: command-line parsing, the
// base config, the --json reporter, and the parallel sweep runner. The
// simulation kernels themselves live behind run_cell (scenario.hpp).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/system_config.hpp"
#include "sim/inline_fn.hpp"
#include "sim/json.hpp"

namespace amo::bench {

/// The paper's processor-count axis (Tables 2/4); Table 3 starts at 16.
std::vector<std::uint32_t> paper_cpu_counts(std::uint32_t min_cpus = 4);

/// Parses --cpus=a,b,c / --episodes=N / --iters=N / --threads=N / --seed=N
/// / --json=path / --config=file.json / --set key=value overrides.
struct CliOptions {
  std::vector<std::uint32_t> cpus;
  int episodes = 0;  // 0 = keep default
  int iters = 0;
  unsigned threads = 1;    // sweep worker threads (1 = serial)
  std::uint64_t seed = 0;  // 0 = keep the config default
  bool quick = false;      // trimmed sweep for CI
  std::string json_path;   // empty = no machine-readable output
  std::string config_path;  // --config: JSON overrides for SystemConfig
  std::vector<std::pair<std::string, std::string>> sets;  // --set k=v
};

/// A default SystemConfig with every config-side CLI override applied, in
/// order: the --config file, each --set key=value, then --seed. The
/// result is validated; errors (unknown keys, inconsistent knobs) throw
/// core::ConfigError naming the field. Every swept config starts here.
[[nodiscard]] core::SystemConfig base_config(const CliOptions& opt);

/// Strict parser: malformed values (non-numeric, empty, zero CPU counts,
/// out-of-range) throw std::runtime_error with a message naming the flag.
CliOptions parse_cli(int argc, char** argv);

/// Same, but prints the error to stderr and exits(2) — what bench main()s
/// use so bad input yields a clear message and a non-zero exit code.
CliOptions parse_cli_or_exit(int argc, char** argv);

/// Collects machine-readable benchmark records and writes them as one JSON
/// document ({bench, schema_version, records: [...]}) on write(), or on
/// destruction if write() was never called.
///
/// Constructing a reporter installs it as the process-wide sink that
/// run_cell() feeds records into (the barrier and lock records carry the
/// swept config, the measured results, traffic deltas, and a full
/// StatsRegistry dump), so a driver only needs:
///
///   bench::JsonReporter rep(opt, "table2_barriers");
///
/// Other code appends its own records via current()->add(). Inactive (no
/// --json=path) reporters are no-ops.
///
/// Concurrency: add() is safe to call from SweepRunner worker threads.
/// While a capture buffer is installed on the calling thread (see
/// begin_capture), records land there lock-free; otherwise add() appends
/// to the shared array under a mutex. Writing happens exactly once, on the
/// owning thread. Call write() to see its errors: the destructor can only
/// print them.
class JsonReporter {
 public:
  JsonReporter(const CliOptions& opt, std::string bench_name);
  ~JsonReporter();
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  [[nodiscard]] bool active() const { return !path_.empty(); }
  void add(sim::Json record);

  /// Records accumulated so far (a JSON array) — mainly for tests. Only
  /// meaningful once no sweep is running.
  [[nodiscard]] const sim::Json& records() const { return records_; }

  /// Writes the document now (also done by the destructor, once).
  void write();

  /// The installed sink, or nullptr when no reporter is alive.
  [[nodiscard]] static JsonReporter* current();

  /// Redirects this thread's add() calls into `buffer` (a JSON array)
  /// until end_capture(). SweepRunner uses this to give each task a
  /// private buffer so records can be flushed in deterministic task order
  /// no matter which worker ran the task when.
  static void begin_capture(sim::Json* buffer);
  static void end_capture();

 private:
  std::string path_;
  std::string name_;
  sim::Json records_ = sim::Json::array();
  std::mutex mu_;      // guards records_ during concurrent add()
  bool written_ = false;
};

/// Runs a list of independent simulation tasks — typically one (mechanism,
/// cpu_count) cell of a sweep each — across a pool of worker threads, or
/// inline when constructed with one thread. Each task owns its Machine
/// (and therefore its Engine and RNG), so tasks never share mutable state.
///
/// JSON records a task emits through JsonReporter are buffered per task
/// and flushed to the reporter in add() order after every task finishes,
/// so --json output is byte-identical to a serial run regardless of the
/// thread count or scheduling. Terminal output belongs after run():
/// compute into per-task result slots, then print.
class SweepRunner {
 public:
  explicit SweepRunner(unsigned threads) : threads_(threads) {}

  /// Queues a task. Tasks must not touch shared mutable state other than
  /// the JsonReporter (which is capture-buffered for them). Tasks follow
  /// the kernel's allocation discipline: small nothrow-movable captures
  /// ride in the InlineFn's 48-byte buffer, oversized ones box through
  /// the FramePool — never the global allocator.
  void add(sim::InlineFn task) { tasks_.push_back(std::move(task)); }

  [[nodiscard]] std::size_t pending() const { return tasks_.size(); }

  /// Runs every queued task, blocks until all finish, flushes their JSON
  /// records in queue order, and clears the queue.
  void run();

 private:
  unsigned threads_;
  std::vector<sim::InlineFn> tasks_;
};

}  // namespace amo::bench
