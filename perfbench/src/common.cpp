#include "common.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "core/io.h"
#include "probe.h"
#include "util/rng.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

ProcSample sample_proc(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  ProcSample s;
  std::string key;
  while (in >> key) {
    double value = 0.0;
    if (key == "VmSize:" && in >> value) s.vmsize_mb = value / 1024.0;
    else if (key == "VmPeak:" && in >> value) s.vmpeak_mb = value / 1024.0;
    else if (key == "VmHWM:" && in >> value) s.vmhwm_mb = value / 1024.0;
    else if (key == "Threads:" && in >> value) s.threads = value;
    std::string rest;
    std::getline(in, rest);
  }
  return s;
}

double process_cpu_ms(pid_t pid) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  if (pid != 0 && ::clock_getcpuclockid(pid, &clock) != 0)
    throw std::runtime_error("no CPU clock for pid " + std::to_string(pid));
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0)
    throw std::runtime_error("cannot read the CPU clock of pid " + std::to_string(pid));
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

util::JsonValue json_array(const std::vector<double>& values) {
  util::JsonArray out;
  for (double v : values) out.push_back(util::JsonValue(v));
  return util::JsonValue(std::move(out));
}

util::JsonValue probe_json(const ProbeTimes& probe) {
  util::JsonObject o;
  o["bytes_ms"] = util::JsonValue(probe.bytes_ms);
  o["switch_ms"] = util::JsonValue(probe.switch_ms);
  return util::JsonValue(std::move(o));
}

core::SolveSpec lcf_spec() {
  core::SolveSpec spec;
  spec.algorithm = "lcf";
  spec.one_minus_xi = 0.3;
  return spec;
}

core::Instance make_instance(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t k, std::size_t network_size,
                             std::size_t providers) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream * 1000003ULL + k);
  core::InstanceParams params;
  params.network_size = network_size;
  params.provider_count = providers;
  return core::generate_instance(params, rng);
}

std::string result_payload(const core::SolveOutcome& outcome,
                           const core::SolveSpec& spec) {
  util::JsonObject result = core::assignment_to_json(outcome.assignment).as_object();
  result["algorithm"] = util::JsonValue(spec.algorithm);
  result["proven_optimal"] = util::JsonValue(outcome.proven_optimal);
  return util::JsonValue(std::move(result)).dump();
}

std::string solve_request_line(const std::string& instance_json,
                               std::uint64_t id) {
  const std::string n = std::to_string(id);
  std::string line;
  line.reserve(instance_json.size() + 128);
  line += "{\"algorithm\":\"lcf\",\"cache\":true,\"id\":";
  line += n;
  line += ",\"instance\":";
  line += instance_json;
  line += ",\"one_minus_xi\":0.3,\"request_id\":\"pb-";
  line += n;
  line += "\",\"type\":\"solve\"}";
  return line;
}

}  // namespace perfbench
