// serve-hit and route-churn: child mecsc_serve / mecsc_route processes on
// private Unix sockets, driven by two client threads in an open loop at a
// fixed rate and then in a closed loop.
//
//   serve-hit    one mecsc_serve with 2 workers; 2 persistent connections;
//                every request hits a resident working set of 32 instances.
//   route-churn  mecsc_route in front of 2 single-worker mecsc_serve
//                backends; a fresh connection per request; 1 request in
//                each block of 10 misses on a never-seen instance.
//
// The bounded timing is the service processes' CPU time per request in the
// closed loop, scaled by the host-speed probes run between its bursts.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "children.h"
#include "core/io.h"
#include "core/lcf.h"
#include "probe.h"
#include "replay.h"
#include "svc/client.h"
#include "svc/socket.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kNetworkSize = 100;
constexpr std::size_t kProviders = 100;
constexpr int kSetupRepeats = 7;
constexpr std::size_t kClientThreads = 2;
/// Share of each pass spent in the open loop, which the recorded latency and
/// the memory figures come from; the closed loop, which the bounded figure
/// comes from, gets the rest.
constexpr double kOpenShare = 0.5;
/// The closed loop sends a fixed number of requests: what the open-loop
/// rate times this factor would send in its share of the pass. The
/// closed-loop capacity runs from about 2 to 9 times the open-loop rate, so
/// it takes at most about its share. A fixed count fixes the miss schedule,
/// and with it the miss pool.
constexpr double kClosedLoad = 3.0;
/// A closed loop still running after this many times its share of the pass
/// stops, and the run is invalid.
constexpr double kClosedDeadlineFactor = 5.0;
/// Client connections one router may see in a run. Each session thread the
/// router leaks keeps 2 mappings, so this stays far below vm.max_map_count
/// (65530) while leaving the leak visible.
constexpr std::size_t kMaxConnections = 15000;
/// Open-loop requests per latency window (so p90 has 25 samples beyond it).
/// The run record keeps the least disturbed window, the lowest.
constexpr std::size_t kWindowRequests = 250;
/// The closed loop runs in this many bursts, with a host-speed probe
/// between each two (probe.h).
constexpr std::size_t kBursts = 20;
/// Limits on the open-loop generator: p99 of its own lag, and the largest
/// due-to-send delay (backlog included). Past either, the run is invalid.
constexpr double kMaxGeneratorLagMs = 20.0;
constexpr double kMaxSendDelayMs = 1000.0;
constexpr std::size_t kReplaySample = 128;
constexpr std::size_t kProbes = 200;
constexpr double kReadyTimeoutMs = 10000.0;

struct Shape {
  bool routed;
  std::size_t hot;          ///< resident working set (instances)
  double miss_share;        ///< share of requests on never-seen instances
  double open_rate;         ///< open-loop offered load, req/s
  bool fresh_connections;   ///< one connection per request
};

Shape shape_for(const std::string& workload) {
  // Open-loop rates are about half the closed-loop capacity of a 4-core
  // x86-64 VM in its slower periods (README.md). Each connection carries
  // requests one at a time, so a rate near capacity turns a slow spell of
  // the host into a backlog that decides the run.
  if (workload == "serve-hit") return Shape{false, 32, 0.0, 400.0, false};
  return Shape{true, 32, 0.1, 200.0, true};
}

/// Requests of one pass of `seconds`.
struct PassSize {
  std::uint64_t open = 0;
  std::uint64_t closed = 0;
};

PassSize pass_size(const Shape& shape, double seconds) {
  return PassSize{
      static_cast<std::uint64_t>(shape.open_rate * seconds * kOpenShare),
      static_cast<std::uint64_t>(shape.open_rate * seconds * (1.0 - kOpenShare) *
                                 kClosedLoad)};
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The service processes of one set-up. Members are destroyed in reverse
/// order: router, then backends, then their directory.
struct Services {
  std::unique_ptr<ScratchDir> dir;
  std::vector<std::unique_ptr<Child>> backends;
  std::vector<std::string> backend_sockets;
  std::unique_ptr<Child> router;
  std::string entry;  ///< the socket clients connect to

  std::vector<pid_t> pids() const {
    std::vector<pid_t> out;
    for (const auto& b : backends) out.push_back(b->pid());
    if (router) out.push_back(router->pid());
    return out;
  }
  /// CPU time of every service process so far, summed.
  double cpu_ms() const {
    double total = 0.0;
    for (pid_t pid : pids()) total += process_cpu_ms(pid);
    return total;
  }
};

std::unique_ptr<Services> start_services(const RunOptions& options,
                                         const Shape& shape) {
  auto s = std::make_unique<Services>();
  s->dir = std::make_unique<ScratchDir>(options.out_dir);
  const std::string& d = s->dir->path();
  const std::size_t backends = shape.routed ? 2 : 1;
  for (std::size_t i = 0; i < backends; ++i) {
    const std::string sock = d + "/b" + std::to_string(i) + ".sock";
    s->backends.push_back(std::make_unique<Child>(
        std::vector<std::string>{options.bin_dir + "/mecsc_serve", "--unix-socket", sock,
                                 "--threads", shape.routed ? "1" : "2"},
        d + "/b" + std::to_string(i) + ".log"));
    s->backend_sockets.push_back(sock);
  }
  for (const std::string& sock : s->backend_sockets) wait_healthy(sock, kReadyTimeoutMs);
  if (!shape.routed) {
    s->entry = s->backend_sockets[0];
    return s;
  }
  std::vector<std::string> argv{options.bin_dir + "/mecsc_route", "--unix-socket",
                                d + "/r.sock"};
  for (std::size_t i = 0; i < backends; ++i) {
    argv.push_back("--backend");
    argv.push_back("b" + std::to_string(i) + "=unix:" + s->backend_sockets[i]);
  }
  s->router = std::make_unique<Child>(argv, d + "/r.log");
  s->entry = d + "/r.sock";
  wait_healthy(s->entry, kReadyTimeoutMs);
  return s;
}

/// One request of a timed pass, as the client saw it.
struct Exchange {
  std::uint64_t id = 0;
  int instance = 0;  ///< >= 0: hot-set index; < 0: miss pool index -1-j
  bool open = false;
  Clock::time_point due, sent, done;
  bool transport_ok = false;
  std::string response;
};

/// One load thread's connection(s) to the entry socket. It sends prebuilt
/// request lines rather than SvcClient::call's JsonValue, so the client does
/// not re-serialize a 33 KB instance per request.
class Client {
 public:
  Client(std::string entry, bool fresh, Tracer& tracer)
      : entry_(std::move(entry)), fresh_(fresh), tracer_(tracer) {}

  /// Sends one line and reads one line. False on a transport error.
  bool exchange(const std::string& line, std::uint64_t id, std::string& reply,
                std::atomic<std::size_t>& connections) {
    tracer_.begin_request("bench.request", id);
    bool ok = false;
    try {
      svc::ConnectionPtr conn = fresh_ ? nullptr : persistent_;
      if (!conn) {
        conn = tracer_.run("svc.connect", id, [&] { return svc::connect_unix(entry_); });
        connections.fetch_add(1);
        if (!fresh_) persistent_ = conn;
      }
      ok = tracer_.run("svc.exchange", id, [&] {
        if (!conn->write_line(line)) return false;
        std::optional<std::string> got = conn->read_line(svc::kMaxResponseBytes);
        if (!got) return false;
        reply = std::move(*got);
        return true;
      });
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) persistent_.reset();  // a later request dials again
    tracer_.end_request();
    return ok;
  }

 private:
  std::string entry_;
  bool fresh_;
  Tracer& tracer_;
  svc::ConnectionPtr persistent_;
};

/// The instances a run sends and the instance of every request id.
struct Workset {
  Shape shape{};
  std::vector<std::string> hot;   ///< instance documents, compact
  std::vector<std::string> pool;  ///< never-seen instances, one per miss
  std::uint64_t first_id = 0;
  std::vector<int> schedule;      ///< instance of request first_id + i

  /// Fixes the instance of requests [first, first + count). With a miss
  /// share of 1/B, each block of B consecutive ids holds exactly one miss,
  /// at a place the seed picks, on its own pool instance; the other
  /// requests pick a hot instance. So every seed sends the same number of
  /// misses. Returns that number, the pool size the schedule needs.
  std::size_t plan(std::uint64_t seed, std::uint64_t first, std::uint64_t count) {
    first_id = first;
    schedule.clear();
    const std::uint64_t block =
        shape.miss_share > 0 ? static_cast<std::uint64_t>(std::llround(1.0 / shape.miss_share))
                             : 0;
    std::size_t misses = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t id = first + i;
      if (block != 0 && i % block == mix64(seed ^ (i / block * 2 + 1)) % block)
        schedule.push_back(-1 - static_cast<int>(misses++));
      else
        schedule.push_back(static_cast<int>(mix64(seed ^ (id * 2)) % shape.hot));
    }
    return misses;
  }
  std::string line_for(std::uint64_t id, int& instance) const {
    instance = schedule.at(id - first_id);
    return solve_request_line(document(instance), id);
  }
  const std::string& document(int instance) const {
    return instance >= 0 ? hot[static_cast<std::size_t>(instance)]
                         : pool[static_cast<std::size_t>(-1 - instance)];
  }
};

/// One burst of the closed loop, with the host-speed probes taken just
/// before and just after it.
struct Burst {
  std::uint64_t requests = 0;
  double seconds = 0.0;
  double cpu_ms = 0.0;  ///< service processes
  ProbeTimes probe_before, probe_after;

  double cpu_ms_per_op() const { return cpu_ms / static_cast<double>(requests); }
  /// cpu_ms_per_op() at the probes' reference speed.
  double normalized_cpu_ms_per_op() const {
    return at_reference_speed(cpu_ms_per_op(), probe_before, probe_after);
  }
};

struct Pass {
  std::vector<Exchange> exchanges;
  double open_s = 0.0;
  double closed_s = 0.0;
  std::size_t open_done = 0;
  std::size_t closed_done = 0;
  std::vector<double> generator_lag_ms;  ///< due -> send while the thread was idle
  double send_delay_ms_max = 0.0;        ///< due -> send, including backlog
  double open_cpu_ms = 0.0;              ///< service processes, whole open loop
  std::vector<Burst> bursts;             ///< the closed loop
  bool stopped_early = false;            ///< connection cap or closed-loop deadline
};

/// `after_open` runs between the open and the closed loop.
Pass run_pass(const Workset& ws, const Services& services, const PassSize& size,
              double seconds, std::uint64_t& next_id, std::atomic<std::size_t>& connections,
              std::vector<std::unique_ptr<Tracer>>& tracers, bool traced,
              const util::Timer& epoch, const std::function<void()>& after_open) {
  Pass pass;
  const std::uint64_t base = next_id;
  std::vector<std::vector<Exchange>> per_thread(kClientThreads);
  std::vector<std::vector<double>> lag(kClientThreads);
  std::vector<double> delay_max(kClientThreads, 0.0);
  std::vector<Tracer*> thread_tracers;
  for (std::size_t c = 0; c < kClientThreads; ++c) {
    tracers.push_back(std::make_unique<Tracer>(
        traced, static_cast<std::uint32_t>(tracers.size()), epoch));
    thread_tracers.push_back(tracers.back().get());
  }
  std::atomic<bool> stop{false};

  // Open loop: request i is due at t0 + i / rate; thread c sends i = c mod 2.
  const double open_cpu0 = services.cpu_ms();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto open_worker = [&](std::size_t c) {
    Client client(services.entry, ws.shape.fresh_connections, *thread_tracers[c]);
    Clock::time_point prev_done = t0;
    for (std::uint64_t i = c; i < size.open; i += kClientThreads) {
      if (connections.load() >= kMaxConnections) {
        stop = true;
        break;
      }
      Exchange ex;
      ex.id = base + i;
      ex.open = true;
      const std::string line = ws.line_for(ex.id, ex.instance);
      ex.due = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) /
                                                      ws.shape.open_rate));
      std::this_thread::sleep_until(ex.due);
      ex.sent = Clock::now();
      lag[c].push_back(ms_between(std::max(ex.due, prev_done), ex.sent));
      delay_max[c] = std::max(delay_max[c], ms_between(ex.due, ex.sent));
      ex.transport_ok = client.exchange(line, ex.id, ex.response, connections);
      ex.done = prev_done = Clock::now();
      per_thread[c].push_back(std::move(ex));
    }
  };
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClientThreads; ++c) threads.emplace_back(open_worker, c);
    for (std::thread& t : threads) t.join();
  }
  pass.open_cpu_ms = services.cpu_ms() - open_cpu0;
  pass.open_s = ms_since(t0) / 1e3;
  next_id = base + size.open;
  after_open();

  // Closed loop, in kBursts bursts of equal size. In a burst each thread
  // sends its next request when its last one returns. Between bursts, with
  // no load running, the host-speed probe runs.
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < kClientThreads; ++c)
    clients.push_back(std::make_unique<Client>(services.entry, ws.shape.fresh_connections,
                                               *thread_tracers[c]));
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                         seconds * (1.0 - kOpenShare) * kClosedDeadlineFactor));
  ProbeTimes before = run_probes();
  for (std::size_t b = 0; b < kBursts && !stop; ++b) {
    const std::uint64_t begin = next_id + size.closed * b / kBursts;
    const std::uint64_t end = next_id + size.closed * (b + 1) / kBursts;
    std::atomic<std::uint64_t> burst_next{begin};
    auto closed_worker = [&](std::size_t c) {
      while (!stop) {
        if (connections.load() >= kMaxConnections || Clock::now() > deadline) {
          stop = true;
          return;
        }
        Exchange ex;
        ex.id = burst_next.fetch_add(1);
        if (ex.id >= end) return;
        const std::string line = ws.line_for(ex.id, ex.instance);
        ex.due = ex.sent = Clock::now();
        ex.transport_ok = clients[c]->exchange(line, ex.id, ex.response, connections);
        ex.done = Clock::now();
        per_thread[c].push_back(std::move(ex));
      }
    };
    Burst burst;
    burst.requests = end - begin;
    burst.probe_before = before;
    const double cpu0 = services.cpu_ms();
    const Clock::time_point b0 = Clock::now();
    {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kClientThreads; ++c) threads.emplace_back(closed_worker, c);
      for (std::thread& t : threads) t.join();
    }
    burst.seconds = ms_since(b0) / 1e3;
    burst.cpu_ms = services.cpu_ms() - cpu0;
    burst.probe_after = before = run_probes();
    pass.bursts.push_back(burst);
  }
  for (std::size_t c = 0; c < kClientThreads; ++c) {
    for (Exchange& ex : per_thread[c]) {
      if (ex.open) ++pass.open_done;
      else ++pass.closed_done;
      pass.exchanges.push_back(std::move(ex));
    }
    pass.generator_lag_ms.insert(pass.generator_lag_ms.end(), lag[c].begin(), lag[c].end());
    pass.send_delay_ms_max = std::max(pass.send_delay_ms_max, delay_max[c]);
  }
  for (const Burst& burst : pass.bursts) pass.closed_s += burst.seconds;
  pass.stopped_early = stop;
  next_id += size.closed;
  return pass;
}

/// Latency quantile q of each window of kWindowRequests consecutive
/// requests (by due time).
std::vector<double> window_latencies(std::vector<std::pair<double, double>> due_latency,
                                     double q) {
  std::sort(due_latency.begin(), due_latency.end());
  const std::size_t n = due_latency.size();
  const std::size_t windows = std::max<std::size_t>(1, n / kWindowRequests);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> lat;
    for (std::size_t i = w * n / windows; i < (w + 1) * n / windows; ++i)
      lat.push_back(due_latency[i].second);
    per_window.push_back(quantile(lat, q));
  }
  return per_window;
}

double best_window(const std::vector<double>& latencies) {
  return *std::min_element(latencies.begin(), latencies.end());
}

/// Counters of one `stats` answer, summed over backends.
struct ServiceCounters {
  double hits = 0, misses = 0, coalesced = 0, evictions = 0, solves = 0, overloaded = 0;
  double forwarded = 0, spilled = 0, backend_failures = 0;
};

ServiceCounters read_counters(const Services& s) {
  ServiceCounters c;
  for (const std::string& sock : s.backend_sockets) {
    const util::JsonValue r = svc::SvcClient::connect(sock).server_stats().body;
    const util::JsonValue& cache = r.at("cache");
    c.hits += cache.number_at("hits");
    c.misses += cache.number_at("misses");
    c.coalesced += cache.number_at("coalesced");
    c.evictions += cache.number_at("evictions");
    c.solves += r.at("server").number_at("solves_executed");
    c.overloaded += r.at("server").number_at("overloaded");
  }
  if (s.router) {
    const util::JsonValue r =
        svc::SvcClient::connect(s.entry).server_stats().body.at("router");
    c.forwarded = r.number_at("forwarded");
    c.spilled = r.number_at("spilled");
    c.backend_failures = r.number_at("backend_failures");
  }
  return c;
}

/// Decoded instance and expected result payload, per instance the run sent.
struct Known {
  core::Instance inst;
  std::string payload;
  double social_cost = 0.0;
};

}  // namespace

void run_serving(const RunOptions& options, Report& report) {
  const Shape shape = shape_for(options.workload);
  const core::SolveSpec spec = lcf_spec();
  const Clock::time_point epoch = Clock::now();
  const util::Timer trace_epoch;
  std::vector<std::unique_ptr<Tracer>> tracers;
  tracers.push_back(std::make_unique<Tracer>(options.trace, 0, trace_epoch));
  Tracer& main_tracer = *tracers[0];

  // Timed passes. A traced run makes an untraced and a traced pass of half
  // the length each; the difference is the tracing overhead. Request ids
  // below kFirstId are the warm-up requests'.
  constexpr std::uint64_t kFirstId = 1000;
  const double pass_s = options.trace ? options.seconds / 2 : options.seconds;
  const PassSize size = pass_size(shape, pass_s);
  const std::size_t pass_count = options.trace ? 2 : 1;

  // Set-up, repeated: generate the hot set and one never-seen instance per
  // scheduled miss, start the services, wait for `health`, warm the cache
  // with every hot instance. Its cost is the CPU time the harness and the
  // services spend until ready, at the reference host speed of the probes
  // run before and after it; the wall time is recorded.
  Workset ws;
  ws.shape = shape;
  const std::size_t misses =
      ws.plan(options.seed, kFirstId, pass_count * (size.open + size.closed));
  std::unique_ptr<Services> services;
  std::vector<double> setup_cpu_s, setup_wall_s;
  std::vector<ProbeTimes> setup_probes;
  for (int r = 0; r < kSetupRepeats; ++r) {
    services.reset();
    setup_probes.push_back(run_probes());
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_ms(0);
    auto generate = [&](std::uint64_t stream, std::size_t count) {
      std::vector<std::string> docs;
      for (std::size_t k = 0; k < count; ++k) {
        const core::Instance inst = main_tracer.run("core.generate_instance", k, [&] {
          return make_instance(options.seed, stream, k, kNetworkSize, kProviders);
        });
        docs.push_back(core::instance_to_json(inst).dump());
      }
      return docs;
    };
    ws.hot = generate(1, shape.hot);
    ws.pool = generate(2, misses);
    services = start_services(options, shape);
    const svc::ConnectionPtr warm = svc::connect_unix(services->entry);
    for (int round = 0; round < 2; ++round) {
      for (std::size_t k = 0; k < ws.hot.size(); ++k) {
        std::optional<std::string> reply;
        if (warm->write_line(solve_request_line(ws.hot[k], k)))
          reply = warm->read_line(svc::kMaxResponseBytes);
        if (!reply || !util::parse_json(*reply).at("ok").as_bool())
          throw std::runtime_error("warm-up request failed");
      }
    }
    setup_cpu_s.push_back((process_cpu_ms(0) - cpu0 + services->cpu_ms()) / 1e3);
    setup_wall_s.push_back(ms_since(t0) / 1e3);
  }
  setup_probes.push_back(run_probes());
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < setup_cpu_s.size(); ++r)
    setup_s.push_back(
        at_reference_speed(setup_cpu_s[r], setup_probes[r], setup_probes[r + 1]));

  std::uint64_t next_id = kFirstId;
  std::atomic<std::size_t> connections{0};
  std::vector<Pass> passes;
  // The memory figures are read once the open loop has sent its fixed number
  // of requests: in route-churn every one of them leaves a session thread
  // behind, so the figure counts a fixed number of leaks however fast the
  // closed loop runs.
  ProcSample open_end;
  auto sample_services = [&] {
    for (pid_t pid : services->pids()) {
      const ProcSample s = sample_proc(pid);
      open_end.vmsize_mb += s.vmsize_mb;
      open_end.vmhwm_mb += s.vmhwm_mb;
    }
  };
  passes.push_back(run_pass(ws, *services, size, pass_s, next_id, connections, tracers,
                            false, trace_epoch, sample_services));
  if (options.trace)
    passes.push_back(run_pass(ws, *services, size, pass_s, next_id, connections, tracers,
                              true, trace_epoch, [] {}));

  // /proc before anything else touches the services.
  std::vector<ProcSample> backend_proc;
  for (const auto& b : services->backends) backend_proc.push_back(sample_proc(b->pid()));
  const ProcSample router_proc = services->router ? sample_proc(services->router->pid())
                                                  : ProcSample{};
  const ServiceCounters counters = read_counters(*services);

  // Probes (traced run): connect cost where the load does not dial per
  // request, and the router hop against the owning backend directly.
  std::vector<double> via_router_ms, direct_ms;
  if (options.trace && !shape.fresh_connections) {
    for (std::size_t i = 0; i < kProbes; ++i)
      main_tracer.run("svc.connect", next_id++,
                      [&] { return svc::connect_unix(services->entry); });
  }
  if (options.trace && shape.routed) {
    const svc::ConnectionPtr router = svc::connect_unix(services->entry);
    std::vector<svc::ConnectionPtr> direct;
    for (const std::string& sock : services->backend_sockets)
      direct.push_back(svc::connect_unix(sock));
    auto timed_call = [&](const svc::ConnectionPtr& conn, const std::string& line,
                          std::vector<double>& ms) {
      const Clock::time_point t = Clock::now();
      std::optional<std::string> reply;
      if (conn->write_line(line)) reply = conn->read_line(svc::kMaxResponseBytes);
      ms.push_back(ms_since(t));
      if (!reply) throw std::runtime_error("hop probe: no reply");
      return util::parse_json(*reply);
    };
    for (std::size_t i = 0; i < kProbes; ++i) {
      const std::string line = solve_request_line(ws.hot[i % ws.hot.size()], next_id++);
      const util::JsonValue routed = timed_call(router, line, via_router_ms);
      const std::string owner = routed.at("route_backend").as_string();
      timed_call(direct.at(std::stoul(owner.substr(1))), line, direct_ms);
    }
  }
  services.reset();  // stop the children before the in-process checks

  // Checks: every result byte-equal to an in-process solve of its instance.
  std::map<int, std::unique_ptr<Known>> known;
  auto known_for = [&](int instance) -> const Known& {
    auto& slot = known[instance];
    if (!slot) {
      slot = std::make_unique<Known>(
          Known{core::instance_from_json_text(ws.document(instance)), {}, 0.0});
      const core::SolveOutcome outcome = core::run_solver(slot->inst, spec);
      slot->payload = result_payload(outcome, spec);
      slot->social_cost = outcome.assignment.social_cost();
    }
    return *slot;
  };
  std::map<int, std::string> first_backend;
  double affinity_hits = 0, affinity_total = 0;
  std::vector<std::pair<double, double>> open_latency_ms[2];  // (due, latency)
  std::vector<double> queue_ms, service_ms;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (const Exchange& ex : passes[p].exchanges) {
      std::string why;
      util::JsonValue body;
      if (!ex.transport_ok) {
        why = "transport error";
      } else {
        try {
          body = util::parse_json(ex.response);
          if (!body.at("ok").as_bool())
            why = "error response: " + ex.response.substr(0, 200);
          else if (body.at("result").dump() != known_for(ex.instance).payload)
            why = "result differs from the in-process solve";
        } catch (const util::JsonError& e) {
          why = std::string("malformed response: ") + e.what();
        }
      }
      if (!why.empty()) {
        ++report.failed;
        report.fail("request " + std::to_string(ex.id) + ": " + why);
      }
      // A failed request counts as missing any latency limit.
      if (ex.open)
        open_latency_ms[p].emplace_back(
            ms_between(epoch, ex.due),
            why.empty() ? ms_between(ex.due, ex.done) : passes[p].open_s * 1e3);
      if (!why.empty()) continue;
      if (p + 1 == passes.size()) {
        queue_ms.push_back(body.number_at("wall_queue_ms"));
        service_ms.push_back(body.number_at("wall_service_ms"));
      }
      if (shape.routed) {
        const std::string backend = body.at("route_backend").as_string();
        const auto [it, fresh] = first_backend.emplace(ex.instance, backend);
        if (!fresh) {
          affinity_total += 1;
          affinity_hits += it->second == backend ? 1 : 0;
        }
      }
    }
    report.attempted += passes[p].exchanges.size();
  }

  // The open-loop generator must keep its schedule.
  std::vector<double> lag;
  double send_delay_max = 0;
  bool stopped_early = false;
  for (const Pass& p : passes) {
    lag.insert(lag.end(), p.generator_lag_ms.begin(), p.generator_lag_ms.end());
    send_delay_max = std::max(send_delay_max, p.send_delay_ms_max);
    stopped_early = stopped_early || p.stopped_early;
  }
  // Behind schedule: the generator's own lag is routinely long (the host's
  // short stalls stay well below this), or a backlog built up to a second.
  const double lag_p99 = quantile(lag, 0.99);
  if (lag_p99 > kMaxGeneratorLagMs || send_delay_max > kMaxSendDelayMs)
    report.fail("open-loop generator fell behind its schedule");
  // Every scheduled request must have been sent.
  if (stopped_early)
    report.fail("a pass stopped early (closed-loop deadline or connection cap)");

  // Quality of what the service returns: the placements of the hot set.
  double hot_cost = 0.0;
  for (std::size_t k = 0; k < ws.hot.size(); ++k)
    hot_cost += known_for(static_cast<int>(k)).social_cost;

  double backend_vmsize = 0;
  for (const ProcSample& s : backend_proc) backend_vmsize += s.vmsize_mb;

  if (options.trace) {
    // Request-path replays on a sample of the traced pass's answered requests.
    std::vector<ServedRequest> served;
    std::vector<std::string> lines;
    const std::vector<Exchange>& traced = passes.back().exchanges;
    const std::size_t stride = std::max<std::size_t>(1, traced.size() / kReplaySample);
    std::vector<const Exchange*> sample;
    for (std::size_t i = 0; i < traced.size() && sample.size() < kReplaySample; i += stride)
      if (traced[i].transport_ok) sample.push_back(&traced[i]);
    lines.reserve(sample.size());
    std::map<int, core::Assignment> placed;
    GameStats game;
    core::LcfOptions lcf_options;
    lcf_options.coordinated_fraction = 1.0 - spec.one_minus_xi;
    for (const Exchange* ex : sample) {
      const Known& k = known_for(ex->instance);
      if (!placed.count(ex->instance))
        placed.emplace(ex->instance,
                       replay_solver(main_tracer, ex->id, k.inst,
                                     core::run_lcf(k.inst, lcf_options), game));
      lines.push_back(solve_request_line(ws.document(ex->instance), ex->id));
      served.push_back(ServedRequest{ex->id, &lines.back(), &ex->response, &k.payload,
                                     &placed.at(ex->instance)});
    }
    replay_request_path(main_tracer, served,
                        route::ShardMap({{"b0", "unix:b0.sock", 1}, {"b1", "unix:b1.sock", 1}}));

    std::vector<const Tracer*> all;
    for (const auto& t : tracers) all.push_back(t.get());
    report_per_layer(all, game, known_for(0).inst, report);
    report.metric("svc.queue_wait_ms_p50", median(queue_ms), "ms");
    report.metric("svc.service_ms_p50", median(service_ms), "ms");
    report.metric("svc.cache_hits", counters.hits, "count");
    report.metric("svc.cache_misses", counters.misses, "count");
    report.metric("svc.cache_coalesced", counters.coalesced, "count");
    report.metric("svc.cache_evictions", counters.evictions, "count");
    report.metric("svc.solves_executed", counters.solves, "count");
    report.metric("svc.overloaded", counters.overloaded, "count");
    const double lookups = counters.hits + counters.misses + counters.coalesced;
    report.metric("svc.cache_hit_ratio", lookups > 0 ? counters.hits / lookups : 0.0, "ratio");
    report.metric("svc.backend_vmsize_mb_end", backend_vmsize, "MB");
    if (shape.routed) {
      report.metric("route.forwarded", counters.forwarded, "count");
      report.metric("route.spilled", counters.spilled, "count");
      report.metric("route.backend_failures", counters.backend_failures, "count");
      report.metric("route.affinity",
                    affinity_total > 0 ? affinity_hits / affinity_total : 0.0, "ratio");
      report.metric("route.hop_ms_p50", median(via_router_ms) - median(direct_ms), "ms");
      report.metric("route.router_vmsize_mb_end", router_proc.vmsize_mb, "MB");
      report.metric("route.router_threads_end", router_proc.threads, "count");
    }
    const double untraced_p50 = best_window(window_latencies(open_latency_ms[0], 0.5));
    const double traced_p50 = best_window(window_latencies(open_latency_ms[1], 0.5));
    report.metric("trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50,
                  "%");
    write_traces(options.out_dir + "/trace-" + options.workload + "-seed" +
                     std::to_string(options.seed) + ".json",
                 all);
  } else {
    report.metric("setup_s", median(setup_s), "s");
    std::vector<double> per_burst;
    for (const Burst& b : passes[0].bursts) per_burst.push_back(b.normalized_cpu_ms_per_op());
    report.metric("cpu_ms_per_op", median(per_burst), "ms");
    report.metric("social_cost", hot_cost / static_cast<double>(ws.hot.size()), "USD");
    report.metric("rss_mb_peak", open_end.vmhwm_mb, "MB");
    report.metric("vmsize_mb_end", open_end.vmsize_mb, "MB");
  }

  // Run record.
  double request_bytes = 0;
  for (const std::string& doc : ws.hot) request_bytes += static_cast<double>(doc.size());
  util::JsonObject& rec = report.record;
  rec["network_size"] = util::JsonValue(kNetworkSize);
  rec["providers"] = util::JsonValue(kProviders);
  rec["cloudlets"] = util::JsonValue(known_for(0).inst.cloudlet_count());
  rec["opt_items"] = util::JsonValue(kProviders);
  rec["opt_groups"] = util::JsonValue(known_for(0).inst.cloudlet_count() + 1);
  rec["instance_bytes_mean"] = util::JsonValue(request_bytes / static_cast<double>(ws.hot.size()));
  rec["payload_bytes_per_request"] = util::JsonValue(
      static_cast<double>(solve_request_line(ws.hot[0], next_id).size()));
  rec["hot_instances"] = util::JsonValue(shape.hot);
  rec["miss_pool"] = util::JsonValue(ws.pool.size());
  std::size_t misses_sent = 0;
  for (const Pass& p : passes)
    for (const Exchange& ex : p.exchanges) misses_sent += ex.instance < 0 ? 1 : 0;
  rec["misses_sent"] = util::JsonValue(misses_sent);
  rec["load"] = util::JsonValue(
      std::string("open loop at ") + util::JsonValue(shape.open_rate).dump() +
      " req/s, then closed loop; " +
      (shape.fresh_connections ? "a fresh connection per request"
                               : "2 persistent connections"));
  rec["client_threads"] = util::JsonValue(kClientThreads);
  rec["connections_opened"] = util::JsonValue(connections.load());
  rec["service_processes"] = util::JsonValue(shape.routed ? 3 : 1);
  rec["service_workers_per_backend"] = util::JsonValue(shape.routed ? 1 : 2);
  rec["open_requests"] = util::JsonValue(open_latency_ms[0].size());
  std::vector<double> whole;
  for (const auto& [due, ms] : open_latency_ms[0]) whole.push_back(ms);
  rec["latency_ms_p50"] = util::JsonValue(best_window(window_latencies(open_latency_ms[0], 0.5)));
  rec["latency_ms_p90"] = util::JsonValue(best_window(window_latencies(open_latency_ms[0], 0.9)));
  rec["latency_ms_p50_whole_phase"] = util::JsonValue(quantile(whole, 0.5));
  rec["latency_ms_p99_whole_phase"] = util::JsonValue(quantile(whole, 0.99));
  rec["throughput_per_s"] = util::JsonValue(
      static_cast<double>(passes[0].closed_done) / passes[0].closed_s);
  util::JsonArray bursts;
  for (const Burst& b : passes[0].bursts) {
    util::JsonObject o;
    o["requests"] = util::JsonValue(static_cast<double>(b.requests));
    o["throughput_per_s"] = util::JsonValue(static_cast<double>(b.requests) / b.seconds);
    o["cpu_ms_per_op"] = util::JsonValue(b.cpu_ms_per_op());
    o["cpu_ms_per_op_normalized"] = util::JsonValue(b.normalized_cpu_ms_per_op());
    o["probe_before"] = probe_json(b.probe_before);
    o["probe_after"] = probe_json(b.probe_after);
    bursts.push_back(util::JsonValue(std::move(o)));
  }
  rec["bursts"] = util::JsonValue(std::move(bursts));
  rec["cpu_ms_per_op_open"] = util::JsonValue(
      passes[0].open_cpu_ms / static_cast<double>(passes[0].open_done));
  rec["latency_ms_p50_windows"] = json_array(window_latencies(open_latency_ms[0], 0.5));
  rec["latency_ms_p90_windows"] = json_array(window_latencies(open_latency_ms[0], 0.9));
  rec["latency_ms_p99_windows"] = json_array(window_latencies(open_latency_ms[0], 0.99));
  rec["open_s"] = util::JsonValue(passes[0].open_s);
  rec["closed_requests"] = util::JsonValue(passes[0].closed_done);
  rec["closed_s"] = util::JsonValue(passes[0].closed_s);
  rec["generator_lag_ms_p99"] = util::JsonValue(lag_p99);
  rec["generator_lag_ms_max"] = util::JsonValue(lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()));
  rec["send_delay_ms_max"] = util::JsonValue(send_delay_max);
  rec["stopped_early"] = util::JsonValue(stopped_early);
  rec["router_vmsize_mb_end"] = util::JsonValue(router_proc.vmsize_mb);
  rec["router_threads_end"] = util::JsonValue(router_proc.threads);
  rec["backend_vmsize_mb_end"] = util::JsonValue(backend_vmsize);
  rec["cache_hits"] = util::JsonValue(counters.hits);
  rec["cache_misses"] = util::JsonValue(counters.misses);
  rec["cache_evictions"] = util::JsonValue(counters.evictions);
  rec["setup_repeats"] = util::JsonValue(kSetupRepeats);
  util::JsonArray probes;
  for (const ProbeTimes& p : setup_probes) probes.push_back(probe_json(p));
  rec["setup_probes"] = util::JsonValue(std::move(probes));
  rec["setup_cpu_s_repeats"] = json_array(setup_cpu_s);
  rec["setup_wall_s_repeats"] = json_array(setup_wall_s);
  rec["setup_wall_s"] = util::JsonValue(median(setup_wall_s));
}

}  // namespace perfbench
