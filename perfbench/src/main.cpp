// perfbench_harness: runs one benchmark workload and prints, as the last line
// of stdout, {"correct", "attempted", "failed", "metrics"}. Normally started
// by perfbench/run.py, which builds it first.
//
//   perfbench_harness --workload solve-large|serve-hit|route-churn
//                     --seed N --seconds S --trace 0|1
//                     --bin-dir DIR --out-dir DIR --reference FILE
//                     [--recompute-reference 0|1] [--build-type NAME]
#include <signal.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "probe.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_harness: " << why << "\n"
            << "usage: perfbench_harness --workload solve-large|serve-hit|route-churn "
               "--seed N --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR "
               "--reference FILE [--recompute-reference 0|1] [--build-type NAME]\n";
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument '" + key + "'");
    kv[key.substr(2)] = argv[i + 1];
  }
  auto need = [&](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) usage(std::string("missing --") + key);
    return it->second;
  };
  RunOptions o;
  o.workload = need("workload");
  if (o.workload != "solve-large" && o.workload != "serve-hit" &&
      o.workload != "route-churn")
    usage("unknown workload '" + o.workload + "'");
  try {
    o.seed = std::stoull(need("seed"));
    o.seconds = std::stod(need("seconds"));
  } catch (const std::exception&) {
    usage("--seed and --seconds must be numbers");
  }
  if (!(o.seconds > 0)) usage("--seconds must be > 0");
  const std::string trace = need("trace");
  if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
  o.trace = trace == "1";
  o.bin_dir = need("bin-dir");
  o.out_dir = need("out-dir");
  o.reference = need("reference");
  if (kv.count("recompute-reference")) {
    const std::string recompute = kv["recompute-reference"];
    if (recompute != "0" && recompute != "1") usage("--recompute-reference must be 0 or 1");
    o.recompute_reference = recompute == "1";
  }
  o.build_type = kv.count("build-type") ? kv["build-type"] : "unknown";
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const RunOptions options = parse(argc, argv);
  std::filesystem::create_directories(options.out_dir);
  perfbench::start_probes();
  Report report;
  try {
    if (options.workload == "solve-large")
      perfbench::run_solve_large(options, report);
    else
      perfbench::run_serving(options, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  namespace util = perfbench::util;
  util::JsonObject& rec = report.record;
  rec["workload"] = util::JsonValue(options.workload);
  rec["seed"] = util::JsonValue(static_cast<double>(options.seed));
  rec["seconds"] = util::JsonValue(options.seconds);
  rec["trace"] = util::JsonValue(options.trace);
  rec["build_type"] = util::JsonValue(options.build_type);
  rec["nproc"] = util::JsonValue(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  util::JsonArray problems;
  for (const std::string& p : report.problems) problems.push_back(util::JsonValue(p));
  rec["problems"] = util::JsonValue(std::move(problems));
  const std::string record = util::JsonValue(rec).dump();
  std::ofstream(options.out_dir + "/record-" + options.workload + "-seed" +
                std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") +
                ".json")
      << record << "\n";

  util::JsonObject metrics;
  for (const auto& [name, m] : report.metrics) {
    if (!std::isfinite(m.first)) {
      report.fail("metric " + name + " is not finite");
      continue;
    }
    util::JsonObject entry;
    entry["value"] = util::JsonValue(m.first);
    entry["unit"] = util::JsonValue(m.second);
    metrics[name] = util::JsonValue(std::move(entry));
  }
  for (const std::string& p : report.problems) std::cerr << "check failed: " << p << "\n";
  util::JsonObject result;
  result["correct"] = util::JsonValue(report.correct);
  result["attempted"] = util::JsonValue(static_cast<std::size_t>(report.attempted));
  result["failed"] = util::JsonValue(static_cast<std::size_t>(report.failed));
  result["metrics"] = util::JsonValue(std::move(metrics));
  std::cout << "run_record " << record << "\n"
            << util::JsonValue(std::move(result)).dump() << std::endl;
  return 0;
}
