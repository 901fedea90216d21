// Shared pieces of the benchmark harness: clocks, percentiles, /proc
// sampling, the per-run report, and the instance recipe every workload uses.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solver_api.h"
#include "util/json.h"

namespace mecsc::route {}
namespace mecsc::svc {}

namespace perfbench {

namespace core = mecsc::core;
namespace obs = mecsc::obs;
namespace route = mecsc::route;
namespace svc = mecsc::svc;
namespace util = mecsc::util;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t) {
  return ms_between(t, Clock::now());
}

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (0 for an empty sample).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Fields of /proc/<pid>/status, in MB (memory) and count (threads).
struct ProcSample {
  double vmsize_mb = 0.0;
  double vmpeak_mb = 0.0;
  double vmhwm_mb = 0.0;
  double threads = 0.0;
};
/// pid 0 samples the calling process.
ProcSample sample_proc(pid_t pid);

/// CPU time of a whole process, every thread it ever ran included, in ms
/// (pid 0: the calling process). The kernel's paravirtual steal accounting
/// leaves out the time a hypervisor took a vCPU away, so on a shared host
/// this tracks the work done where wall time tracks the neighbours.
double process_cpu_ms(pid_t pid);

/// Everything one run prints: the end-to-end or per-layer metrics, the
/// operation counts, and the run record that makes numbers from different
/// commits comparable.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  util::JsonObject record;
  std::vector<std::string> problems;  ///< why `correct` is false

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
};

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;        ///< holds mecsc_serve and mecsc_route
  std::string out_dir;        ///< run records, traces, scratch sockets
  std::string reference;      ///< solve-large reference social costs
  /// Take solve-large's reference costs from core::run_lcf instead of the
  /// file; only for writing that file (make_reference.py).
  bool recompute_reference = false;
  std::string build_type;
};

util::JsonValue json_array(const std::vector<double>& values);

/// Probe times as {"bytes_ms", "switch_ms"}.
struct ProbeTimes;
util::JsonValue probe_json(const ProbeTimes& probe);

/// The solve spec every workload sends: LCF with 1-xi = 0.3.
core::SolveSpec lcf_spec();

/// Instance k of stream `stream` for a run seeded with `seed`. Distinct
/// (seed, stream, k) triples give independent generator states.
core::Instance make_instance(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t k, std::size_t network_size,
                             std::size_t providers);

/// The "result" object the service returns for a solve: the assignment
/// document plus the algorithm name and proof flag the service adds.
std::string result_payload(const core::SolveOutcome& outcome,
                           const core::SolveSpec& spec);

/// One solve request line for an instance document. `id` is also the
/// request_id ("pb-<id>"), which the service echoes and logs, so spans of
/// the benchmark and of the service share one request id.
std::string solve_request_line(const std::string& instance_json,
                               std::uint64_t id);

}  // namespace perfbench
