#include "daemon.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "core/io.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_info.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/log.h"

namespace mecsc::tools {
namespace {

/// Self-pipe bridging POSIX signals to the drain sequence: the handler
/// writes one byte (async-signal-safe), a watcher thread blocks on the
/// read end. Daemon::serve() closes the write end after wait() so the
/// watcher always exits.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int sig) {
  // One byte per signal, tagged so the watcher can tell "drain" (SIGTERM /
  // SIGINT) from "dump the flight recorder, keep serving" (SIGQUIT).
  const char byte = sig == SIGQUIT ? 2 : 1;
  // Result ignored deliberately: if the pipe is full, a wakeup is already
  // pending and the drain will run.
  [[maybe_unused]] const ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

void dump_flight(const svc::Frontend& daemon, const std::string& path) {
  const std::string dump = daemon.flight_json().dump(2);
  if (path.empty()) {
    std::cerr << "flight recorder dump (SIGQUIT):\n" << dump << "\n";
    return;
  }
  try {
    core::write_text_file(path, dump + "\n");
    std::cerr << "wrote " << path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: flight dump failed: " << e.what() << "\n";
  }
}

}  // namespace

DaemonArgs::DaemonArgs(int argc, char** argv, const DaemonSpec& spec)
    : spec_(spec) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      std::cerr << spec_.usage;
      std::exit(0);
    }
    if (key.rfind("--", 0) != 0) usage_error("unexpected argument '" + key + "'");
    if (i + 1 >= argc) usage_error("flag '" + key + "' needs a value");
    values_.emplace_back(key, argv[++i]);
  }
}

void DaemonArgs::usage_error(const std::string& message) const {
  std::cerr << "error: " << message << "\n\n" << spec_.usage;
  std::exit(2);
}

std::optional<std::string> DaemonArgs::get(const std::string& key) const {
  std::optional<std::string> found;
  for (const auto& [k, v] : values_)
    if (k == key) found = v;
  return found;
}

std::vector<std::string> DaemonArgs::get_all(const std::string& key) const {
  std::vector<std::string> found;
  for (const auto& [k, v] : values_)
    if (k == key) found.push_back(v);
  return found;
}

double DaemonArgs::number(const std::string& key, double fallback) const {
  const std::optional<std::string> v = get(key);
  if (!v) return fallback;
  const char* begin = v->c_str();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE || !std::isfinite(parsed))
    usage_error(key + " needs a number, got '" + *v + "'");
  return parsed;
}

std::size_t DaemonArgs::count(const std::string& key,
                              std::size_t fallback) const {
  if (!get(key)) return fallback;
  const double n = number(key, 0.0);
  // 2^53: every integer below it is exact in a double.
  if (n < 0.0 || n != std::floor(n) || n > 9007199254740992.0)
    usage_error(key + " must be a non-negative integer");
  return static_cast<std::size_t>(n);
}

int DaemonArgs::port(const std::string& key) const {
  if (!get(key)) return -1;
  const double n = number(key, 0.0);
  if (n < 0.0 || n > 65535.0 || n != std::floor(n))
    usage_error(key + " must be in [0, 65535]");
  return static_cast<int>(n);
}

Daemon::Daemon(const DaemonArgs& args, const DaemonSpec& spec)
    : args_(args), spec_(spec) {
  if (const auto level = args_.get("--log-level")) {
    if (*level == "debug") {
      util::set_log_level(util::LogLevel::Debug);
    } else if (*level == "info") {
      util::set_log_level(util::LogLevel::Info);
    } else if (*level == "warn") {
      util::set_log_level(util::LogLevel::Warn);
    } else if (*level == "error") {
      util::set_log_level(util::LogLevel::Error);
    } else if (*level == "off") {
      util::set_log_level(util::LogLevel::Off);
    } else {
      args_.usage_error("--log-level must be debug|info|warn|error|off, got '" +
                        *level + "'");
    }
  }
  obs::install_log_bridge();
  obs::MetricsRegistry::global().reset();
  if (spec_.profile_out && args_.get("--profile-out"))
    obs::Profiler::global().enable();
}

void Daemon::parse_frontend_flags(svc::FrontendOptions& options) const {
  options.unix_socket_path = args_.get("--unix-socket").value_or("");
  options.tcp_port = args_.port("--tcp-port");
  if (options.unix_socket_path.empty() && options.tcp_port < 0)
    args_.usage_error("need --unix-socket PATH or --tcp-port PORT");
  if (!options.unix_socket_path.empty() && options.tcp_port >= 0)
    args_.usage_error("--unix-socket and --tcp-port are mutually exclusive");
  options.request_log_path = args_.get("--request-log").value_or("");
  options.request_log_max_mb = args_.number("--request-log-max-mb", 0.0);
  options.slow_request_ms = args_.number("--slow-request-ms", -1.0);
  options.trace_out = args_.get("--trace-out").value_or("");
  options.trace_sample_rate = args_.number("--trace-sample-rate", 0.0);
  if (options.trace_sample_rate < 0.0 || options.trace_sample_rate > 1.0)
    args_.usage_error("--trace-sample-rate must be in [0, 1]");
  options.flight_recorder_capacity = args_.count("--flight-recorder", 256);
  options.admin_port = args_.port("--admin-port");
  options.telemetry_window_ms = args_.number("--telemetry-window-ms", 60000.0);
  if (options.telemetry_window_ms <= 0.0)
    args_.usage_error("--telemetry-window-ms must be > 0");
  if (args_.get("--admin-port-file") && options.admin_port < 0)
    args_.usage_error("--admin-port-file needs --admin-port");
}

void Daemon::serve(svc::Frontend& daemon) const {
  if (daemon.admin_port() >= 0)
    std::cerr << "admin endpoint on tcp:127.0.0.1:" << daemon.admin_port()
              << " (/metrics, /stats, /debug/flight)\n";
  if (const auto port_file = args_.get("--port-file"))
    core::write_text_file(*port_file, std::to_string(daemon.port()) + "\n");
  if (const auto admin_port_file = args_.get("--admin-port-file"))
    core::write_text_file(*admin_port_file,
                          std::to_string(daemon.admin_port()) + "\n");

  if (pipe(g_signal_pipe) != 0)
    throw std::runtime_error(std::string("cannot create signal pipe: ") +
                             std::strerror(errno));
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGQUIT, on_signal);  // flight-recorder dump, not a stop
  std::signal(SIGPIPE, SIG_IGN);  // belt-and-braces next to MSG_NOSIGNAL
  const std::string flight_dump_path = args_.get("--flight-dump").value_or("");
  std::thread signal_watcher([&daemon, &flight_dump_path] {
    char byte = 0;
    while (true) {
      const ssize_t n = read(g_signal_pipe[0], &byte, 1);
      if (n == 1 && byte == 2) {
        // SIGQUIT: dump the last N requests (wide events + span trees)
        // and keep serving — the incident-debugging snapshot.
        dump_flight(daemon, flight_dump_path);
        continue;
      }
      if (n == 1) {
        daemon.request_shutdown();
        return;
      }
      if (n == 0) return;          // write end closed: normal exit
      if (errno != EINTR) return;  // unexpected; don't spin
    }
  });

  daemon.wait();
  // Wake the watcher if the drain came from a shutdown request rather
  // than a signal.
  close(g_signal_pipe[1]);
  signal_watcher.join();
  close(g_signal_pipe[0]);
}

void Daemon::write_outputs() const {
  const auto metrics_out = args_.get("--metrics-out");
  if (metrics_out) {
    core::write_text_file(
        *metrics_out,
        obs::MetricsRegistry::global().snapshot().to_json().dump(2));
    std::cerr << "wrote " << *metrics_out << "\n";
  }
  if (const auto profile_out = args_.get("--profile-out");
      spec_.profile_out && profile_out) {
    core::write_text_file(*profile_out,
                          obs::Profiler::global().report().to_json().dump(2));
    obs::Profiler::global().disable();
    std::cerr << "wrote " << *profile_out << "\n";
  }
  std::optional<std::string> manifest_path = args_.get("--manifest-out");
  if (!manifest_path && metrics_out)
    manifest_path = *metrics_out + ".manifest.json";
  if (!manifest_path) return;
  obs::RunManifest manifest;
  manifest.tool = spec_.tool;
  manifest.command = spec_.command;
  for (const auto& [key, value] : args_.all()) {
    const bool repeatable =
        std::find(spec_.repeatable.begin(), spec_.repeatable.end(), key) !=
        spec_.repeatable.end();
    // The manifest config is a flat object: repeatable flags fold into one
    // comma-joined value, the rest keep their effective (last) value.
    if (repeatable && manifest.config.count(key)) {
      manifest.config[key] =
          util::JsonValue(manifest.config[key].as_string() + "," + value);
    } else {
      manifest.config[key] = util::JsonValue(value);
    }
  }
  obs::write_manifest(*manifest_path, manifest);
  std::cerr << "wrote " << *manifest_path << "\n";
}

int daemon_main(int argc, char** argv, const DaemonSpec& spec,
                const std::function<void(Daemon&)>& run) {
  const DaemonArgs args(argc, argv, spec);
  try {
    Daemon daemon(args, spec);
    run(daemon);
    daemon.write_outputs();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace mecsc::tools
