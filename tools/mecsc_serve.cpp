// mecsc_serve — long-running solver daemon.
//
// Speaks newline-delimited JSON over a Unix-domain socket or loopback TCP
// (protocol reference: DESIGN.md "Serving" and src/svc/server.h):
//
//   mecsc_serve --unix-socket /tmp/mecsc.sock --threads 4
//   mecsc_serve --tcp-port 0 --cache-capacity 256 --queue-capacity 64
//
// With --tcp-port 0 the kernel picks an ephemeral port; the daemon prints
// "listening on tcp:127.0.0.1:<port>" to stderr and, with --port-file,
// writes the bare port number to a file so scripts can discover it without
// parsing logs. Runs until SIGTERM/SIGINT or a {"type": "shutdown"}
// request, then drains: every admitted request is answered before exit.
//
// Observability mirrors the mecsc CLI: --metrics-out/--profile-out/
// --manifest-out write their artifacts after the drain completes. The
// flags, signals, and artifacts shared with mecsc_route live in daemon.h.
#include <iostream>
#include <utility>

#include "daemon.h"
#include "svc/server.h"

namespace {

using namespace mecsc;

const tools::DaemonSpec kDaemon{
    "mecsc_serve", "serve",
    R"(mecsc_serve — solver service daemon (NDJSON over a socket)

usage:
  mecsc_serve (--unix-socket PATH | --tcp-port PORT)
              [--threads N]          worker pool size (default 4)
              [--queue-capacity N]   admitted-request queue (default 64)
              [--cache-capacity N]   resident solve results (default 128)
              [--default-deadline-ms MS]  applied when requests carry none
              [--port-file FILE]     write the bound TCP port (ephemeral
                                     binds resolve before the file appears)
              [--request-log FILE]   wide-event JSON-lines log: one record
                                     per request (request_id, phase times,
                                     cache outcome; obs/telemetry.h)
              [--request-log-max-mb MB]  rotate the request log to FILE.1
                                     when it would exceed MB (single-level
                                     rollover; 0 = never, the default)
              [--slow-request-ms MS] mirror requests slower than MS to
                                     stderr as they complete, and always
                                     keep their causal trace (tail sampling)
              [--trace-out FILE]     kept causal traces as Chrome
                                     trace-event JSON (load in Perfetto /
                                     chrome://tracing; obs/tracing.h)
              [--trace-sample-rate R]  head-sampling rate in [0, 1]: the
                                     fraction of traces kept regardless of
                                     outcome (errors and slow requests are
                                     always kept). Default 0
              [--flight-recorder N]  in-memory ring of the last N completed
                                     requests with span trees (default 256)
              [--flight-dump FILE]   where SIGQUIT dumps the flight
                                     recorder (default: stderr)
              [--admin-port PORT]    read-only loopback HTTP endpoint:
                                     GET /metrics (Prometheus text),
                                     GET /stats (JSON), GET /debug/flight
                                     (flight-recorder dump); 0 = ephemeral
              [--admin-port-file FILE]  write the bound admin port
              [--telemetry-window-ms MS]  sliding RED window (default 60000)
              [--log-level LEVEL] [--metrics-out FILE] [--profile-out FILE]
              [--manifest-out FILE]

--tcp-port 0 binds an ephemeral loopback port. Stop with SIGTERM/SIGINT or
a {"type": "shutdown"} request; either way the daemon answers everything it
admitted before exiting. SIGQUIT does not stop the daemon: it dumps the
flight recorder (last N requests + span trees) for incident debugging.
)",
    /*profile_out=*/true,
    {}};

}  // namespace

int main(int argc, char** argv) {
  return tools::daemon_main(argc, argv, kDaemon, [](tools::Daemon& d) {
    const tools::DaemonArgs& args = d.args();
    svc::ServerOptions options;
    d.parse_frontend_flags(options);
    options.threads = args.count("--threads", 4);
    options.queue_capacity = args.count("--queue-capacity", 64);
    options.cache_capacity = args.count("--cache-capacity", 128);
    options.default_deadline_ms = args.number("--default-deadline-ms", 0.0);
    if (options.threads == 0) args.usage_error("--threads must be >= 1");
    if (options.queue_capacity == 0)
      args.usage_error("--queue-capacity must be >= 1");

    svc::SolverServer server(std::move(options));
    server.start();
    std::cerr << "listening on " << server.endpoint() << "\n";
    d.serve(server);

    const svc::ServerStats stats = server.stats();
    std::cerr << "drained: " << stats.requests_total << " requests ("
              << stats.responses_ok << " ok, " << stats.responses_error
              << " errors, " << stats.overloaded << " overloaded), "
              << stats.solves_executed << " solves, cache "
              << stats.cache.hits << " hits / " << stats.cache.misses
              << " misses / " << stats.cache.evictions << " evictions\n";
  });
}
