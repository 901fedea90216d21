#include "probe.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common.h"

namespace perfbench {

namespace {

constexpr int kBytesRounds = 120;
constexpr int kSwitchRoundTrips = 4000;

volatile std::uint64_t g_sink = 0;

/// A JSON-like text of about 64 KB, the same on every call.
const std::string& probe_text() {
  static const std::string text = [] {
    std::string t = "{\"providers\":[";
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    while (t.size() < 64 * 1024) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      t += "{\"id\":" + std::to_string(x % 100000) + ",\"demand\":" +
           std::to_string(static_cast<double>(x % 997) / 7.0) + ",\"name\":\"p" +
           std::to_string(x % 4096) + "\"},";
    }
    t += "{}]}";
    return t;
  }();
  return text;
}

double bytes_probe() {
  const std::string& text = probe_text();
  std::uint64_t acc = 0;
  for (int r = 0; r < kBytesRounds; ++r) {
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : text) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    std::string copy;
    for (char c : text)
      if (c != ' ') copy.push_back(c);
    std::uint64_t quotes = 0;
    for (char c : copy) quotes += c == '"' ? 1 : 0;
    acc += h ^ quotes ^ copy.size();
  }
  return static_cast<double>(acc & 1);
}

/// A child process that answers every byte it reads with the same byte.
/// It is forked once, before the harness starts any thread, so the probe
/// adds no thread (and no thread stack or malloc arena) to the harness.
class Echo {
 public:
  Echo() {
    // Close-on-exec, so the service processes the harness starts later do
    // not hold the pipes.
    if (::pipe2(to_, O_CLOEXEC) != 0 || ::pipe2(from_, O_CLOEXEC) != 0)
      throw std::runtime_error("probe: pipe failed");
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("probe: fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(0);
      ::close(to_[1]);
      ::close(from_[0]);
      char c = 0;
      while (::read(to_[0], &c, 1) == 1)
        if (::write(from_[1], &c, 1) != 1) break;
      ::_exit(0);
    }
    ::close(to_[0]);
    ::close(from_[1]);
  }
  ~Echo() {
    ::close(to_[1]);  // EOF ends the child's loop
    ::close(from_[0]);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  Echo(const Echo&) = delete;
  Echo& operator=(const Echo&) = delete;

  bool round_trip() {
    char c = 'x';
    return ::write(to_[1], &c, 1) == 1 && ::read(from_[0], &c, 1) == 1;
  }

 private:
  int to_[2]{-1, -1};
  int from_[2]{-1, -1};
  pid_t pid_ = -1;
};

Echo& echo() {
  static Echo e;
  return e;
}

double switch_probe() {
  Echo& e = echo();
  std::uint64_t got = 0;
  for (int i = 0; i < kSwitchRoundTrips; ++i) got += e.round_trip() ? 1 : 0;
  if (got != kSwitchRoundTrips) throw std::runtime_error("probe: pipe ping-pong broke");
  return static_cast<double>(got);
}

template <class F>
double cpu_ms_of(F&& f) {
  const double t0 = process_cpu_ms(0);
  g_sink = g_sink + static_cast<std::uint64_t>(f());
  return process_cpu_ms(0) - t0;
}

}  // namespace

void start_probes() {
  probe_text();
  echo();
}

ProbeTimes run_probes() {
  start_probes();  // built once, outside the timing
  ProbeTimes t;
  t.bytes_ms = cpu_ms_of(bytes_probe);
  t.switch_ms = cpu_ms_of(switch_probe);
  return t;
}

}  // namespace perfbench
