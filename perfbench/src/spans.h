// In-memory request traces recorded around the harness's calls into the
// program.
//
// A Tracer belongs to one thread. It builds each request's span tree with
// obs::RequestTrace, the class the services use, so every span carries a
// name, start, end, the span that caused it and the request id it serves.
// Finished trees stay in memory; write_traces() hands them to an
// obs::TraceWriter once, at exit, so the file is Chrome trace events in the
// schema the services' own traces use and Perfetto loads both. A disabled
// Tracer records nothing and costs one branch per call.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "obs/tracing.h"
#include "util/timer.h"

namespace perfbench {

class Tracer {
 public:
  /// `epoch` places every trace on one timeline and must outlive the
  /// Tracer; `tid` is the thread's row in the trace file.
  Tracer(bool enabled, std::uint32_t tid, const util::Timer& epoch)
      : enabled_(enabled), tid_(tid), epoch_(epoch) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens the root span of request `request` ("pb-<request>"); spans run
  /// until end_request() are its descendants.
  void begin_request(const char* name, std::uint64_t request);
  void end_request();

  /// Runs f() in a span under the innermost open span and returns f()'s
  /// result. Outside a request, the span is a request of its own.
  template <class F>
  auto run(const char* name, std::uint64_t request, F&& f) -> decltype(f()) {
    if (!enabled_) return f();
    const bool root = !open_;
    if (root) begin_request(name, request);
    else open_->begin(name);
    struct Closer {
      Tracer* tracer;
      bool root;
      ~Closer() {
        if (root) tracer->end_request();
        else tracer->open_->end();
      }
    } closer{this, root};
    return f();
  }

  const std::vector<obs::FinishedTrace>& traces() const { return traces_; }

 private:
  bool enabled_;
  std::uint32_t tid_;
  const util::Timer& epoch_;
  util::Timer clock_;  ///< the open request's clock; span offsets use it
  double base_ms_ = 0.0;
  std::string request_id_;
  std::optional<obs::RequestTrace> open_;
  std::vector<obs::FinishedTrace> traces_;
};

/// Self times (span duration minus the part its children cover) in ms,
/// grouped by span name, over every trace of every tracer.
std::map<std::string, std::vector<double>> self_times_ms(
    const std::vector<const Tracer*>& tracers);

/// Writes every trace of `tracers` to `path` with obs::TraceWriter.
void write_traces(const std::string& path, const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
