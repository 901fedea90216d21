// What mecsc_serve and mecsc_route share around their svc::Frontend: flag
// parsing with usage errors, --log-level, the endpoint and observability
// flags, port files, the SIGTERM/SIGINT/SIGQUIT self-pipe watcher (drain,
// or dump the flight recorder), and --metrics-out / --profile-out /
// --manifest-out. Each binary's main() parses only its own flags, builds
// its daemon, and prints its own drain summary:
//
//   int main(int argc, char** argv) {
//     return tools::daemon_main(argc, argv, kDaemon, [](tools::Daemon& d) {
//       svc::ServerOptions options;
//       d.parse_frontend_flags(options);
//       options.threads = d.args().count("--threads", 4);
//       svc::SolverServer server(std::move(options));
//       server.start();
//       d.serve(server);  // returns after the drain
//       std::cerr << "drained: ...\n";
//     });
//   }
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "svc/frontend.h"

namespace mecsc::tools {

/// A daemon binary's fixed identity and help text.
struct DaemonSpec {
  const char* tool;     ///< manifest "tool", e.g. "mecsc_serve"
  const char* command;  ///< manifest "command", e.g. "serve"
  const char* usage;    ///< full --help text
  bool profile_out;     ///< accepts --profile-out
  /// Flags that may repeat (each occurrence kept); the manifest records
  /// them comma-joined. Every other flag is last-wins.
  std::vector<std::string> repeatable;
};

/// --key value pairs in command-line order. Malformed input ends the
/// process with the usage text and exit status 2.
class DaemonArgs {
 public:
  DaemonArgs(int argc, char** argv, const DaemonSpec& spec);

  /// Prints "error: <message>" and the usage text; exits 2.
  [[noreturn]] void usage_error(const std::string& message) const;

  /// Last value of `key`, if given.
  std::optional<std::string> get(const std::string& key) const;
  /// Every value of `key`, in order.
  std::vector<std::string> get_all(const std::string& key) const;
  /// A number; a value that is not one is a usage error naming the flag.
  double number(const std::string& key, double fallback) const;
  /// A non-negative integer (sizes and counts).
  std::size_t count(const std::string& key, std::size_t fallback) const;
  /// A port in [0, 65535]; -1 when absent.
  int port(const std::string& key) const;

  const std::vector<std::pair<std::string, std::string>>& all() const {
    return values_;
  }

 private:
  const DaemonSpec& spec_;
  std::vector<std::pair<std::string, std::string>> values_;
};

/// One daemon run: the shared set-up before the binary's own code, and
/// serve() for everything from port files to the drain.
class Daemon {
 public:
  Daemon(const DaemonArgs& args, const DaemonSpec& spec);

  const DaemonArgs& args() const { return args_; }

  /// Endpoint (--unix-socket | --tcp-port) and observability flags, checked.
  void parse_frontend_flags(svc::FrontendOptions& options) const;

  /// For a started daemon: announces the admin endpoint, writes the port
  /// files, bridges signals (SIGTERM/SIGINT drain, SIGQUIT dumps the
  /// flight recorder), and waits for the drain to finish.
  void serve(svc::Frontend& daemon) const;

  /// --metrics-out, --profile-out and --manifest-out, after the drain.
  void write_outputs() const;

 private:
  const DaemonArgs& args_;
  const DaemonSpec& spec_;
};

/// Parses the flags, runs the shared set-up, calls `run`, and writes the
/// output artifacts. Returns the process exit status: 0, 1 on a runtime
/// error ("error: ..." on stderr), or 2 on a usage error.
int daemon_main(int argc, char** argv, const DaemonSpec& spec,
                const std::function<void(Daemon&)>& run);

}  // namespace mecsc::tools
