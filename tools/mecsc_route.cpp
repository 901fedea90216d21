// mecsc_route — digest-sharded front router for a fleet of mecsc_serve
// backends.
//
// Terminates client NDJSON connections and consistent-hashes each
// request's instance digest onto the backend that owns it (src/route/),
// so every backend's result cache stays hot for its shard:
//
//   mecsc_route --tcp-port 0 --port-file /tmp/route.port
//       --backend b1=tcp:127.0.0.1:7001
//       --backend b2=tcp:127.0.0.1:7002@2
//       --backend b3=unix:/tmp/mecsc3.sock
//
// "@2" gives a backend twice the keyspace share. Clients speak the exact
// mecsc_serve protocol to the router; responses additionally carry
// "route_backend" (and "route_spilled" when the owner was skipped). A
// {"type": "drain_backend", "backend": "b2"} request rehashes new keys
// away from b2 while its in-flight requests finish.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "daemon.h"
#include "route/router.h"

namespace {

using namespace mecsc;

const tools::DaemonSpec kDaemon{
    "mecsc_route", "route",
    R"(mecsc_route — digest-sharded front router (NDJSON over a socket)

usage:
  mecsc_route (--unix-socket PATH | --tcp-port PORT)
              --backend [NAME=]ENDPOINT[@WEIGHT]   (repeatable, >= 1)
                                     NAME defaults to b1, b2, ...; WEIGHT
                                     (default 1) scales the keyspace share
              [--health-interval-ms MS]  backend probe period (default
                                     1000; 0 disables probing — forward
                                     failures still mark backends down)
              [--probe-failures N]   consecutive probe failures before a
                                     backend is skipped (default 2)
              [--spill-queue-fraction F]  pre-spill when a probed backend's
                                     queue is >= F full (default 0.9;
                                     >= 1 disables pre-spill)
              [--port-file FILE]     write the bound TCP port
              [--request-log FILE]   wide-event JSON-lines log (one record
                                     per routed request)
              [--request-log-max-mb MB] [--slow-request-ms MS]
              [--trace-out FILE]     kept causal traces (Chrome trace-event
                                     JSON; spans are route.request ->
                                     route.forward, parenting the backend's
                                     svc.request across the hop)
              [--trace-sample-rate R] [--flight-recorder N]
              [--flight-dump FILE]   where SIGQUIT dumps the flight recorder
              [--admin-port PORT]    read-only loopback HTTP endpoint
              [--admin-port-file FILE] [--telemetry-window-ms MS]
              [--log-level LEVEL] [--metrics-out FILE] [--manifest-out FILE]

Stop with SIGTERM/SIGINT or a {"type": "shutdown"} request; in-flight
requests finish before exit. SIGQUIT dumps the flight recorder and keeps
routing.
)",
    /*profile_out=*/false,
    {"--backend"}};

/// Parses "[NAME=]ENDPOINT[@WEIGHT]". '@' never appears in the endpoint
/// grammar ("unix:<path>" / "tcp:<host>:<port>" / bare path), and the
/// NAME is cut at the first '=' only when one precedes the endpoint's
/// scheme prefix.
route::BackendSpec parse_backend(const tools::DaemonArgs& args,
                                 const std::string& text, std::size_t index) {
  route::BackendSpec spec;
  std::string rest = text;
  const std::size_t at = rest.rfind('@');
  if (at != std::string::npos) {
    const std::string weight_text = rest.substr(at + 1);
    try {
      const int weight = std::stoi(weight_text);
      if (weight < 1)
        args.usage_error("backend weight must be >= 1 in '" + text + "'");
      spec.weight = static_cast<std::size_t>(weight);
    } catch (const std::exception&) {
      args.usage_error("bad backend weight in '" + text + "'");
    }
    rest = rest.substr(0, at);
  }
  const std::size_t eq = rest.find('=');
  if (eq != std::string::npos) {
    spec.name = rest.substr(0, eq);
    spec.endpoint = rest.substr(eq + 1);
  } else {
    spec.name = "b" + std::to_string(index + 1);
    spec.endpoint = rest;
  }
  if (spec.name.empty() || spec.endpoint.empty())
    args.usage_error("bad --backend '" + text +
                     "' (want [NAME=]ENDPOINT[@WEIGHT])");
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::daemon_main(argc, argv, kDaemon, [](tools::Daemon& d) {
    const tools::DaemonArgs& args = d.args();
    route::RouterOptions options;
    d.parse_frontend_flags(options);
    const std::vector<std::string> backend_args = args.get_all("--backend");
    if (backend_args.empty()) args.usage_error("need at least one --backend");
    for (std::size_t i = 0; i < backend_args.size(); ++i)
      options.backends.push_back(parse_backend(args, backend_args[i], i));
    options.health_interval_ms = args.number("--health-interval-ms", 1000.0);
    options.probe_failure_threshold = args.count("--probe-failures", 2);
    if (options.probe_failure_threshold == 0)
      args.usage_error("--probe-failures must be >= 1");
    options.spill_queue_fraction = args.number("--spill-queue-fraction", 0.9);
    if (options.spill_queue_fraction <= 0.0)
      args.usage_error("--spill-queue-fraction must be > 0");

    route::Router router(std::move(options));
    router.start();
    std::cerr << "routing on " << router.endpoint() << " ("
              << backend_args.size() << " backends)\n";
    d.serve(router);

    const route::RouterStats stats = router.stats();
    std::cerr << "drained: " << stats.requests_total << " requests ("
              << stats.responses_ok << " ok, " << stats.responses_error
              << " errors), " << stats.forwarded << " forwarded, "
              << stats.spilled << " spilled, " << stats.backend_failures
              << " backend failures\n";
  });
}
