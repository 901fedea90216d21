#include "spans.h"

#include <stdexcept>

namespace perfbench {

void Tracer::begin_request(const char* name, std::uint64_t request) {
  if (!enabled_) return;
  if (open_) throw std::logic_error("Tracer: a request is already open");
  request_id_ = "pb-" + std::to_string(request);
  // One request id can have several trees (its load span and its replay);
  // the tracer and its count of finished trees make each trace id unique.
  obs::TraceContext ctx = obs::TraceContext::derive(
      request_id_ + "/" + std::to_string(tid_) + "/" + std::to_string(traces_.size()), true);
  ctx.span_id.clear();  // no upstream parent: the harness is the caller
  base_ms_ = epoch_.elapsed_ms();
  clock_.reset();
  open_.emplace(std::move(ctx), clock_, name);
}

void Tracer::end_request() {
  if (!open_) return;
  traces_.push_back(open_->finish(request_id_, "bench", "sampled", tid_, base_ms_));
  open_.reset();
}

namespace {

void add_self_times(const obs::TraceSpan& span,
                    std::map<std::string, std::vector<double>>& out) {
  // Children of one span run one after another on the tracer's thread, so
  // the part of the parent they cover is the sum of their durations.
  double children_ms = 0.0;
  for (const obs::TraceSpan& child : span.children) {
    children_ms += child.dur_ms;
    add_self_times(child, out);
  }
  out[span.name].push_back(span.dur_ms - children_ms);
}

}  // namespace

std::map<std::string, std::vector<double>> self_times_ms(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, std::vector<double>> out;
  for (const Tracer* tracer : tracers)
    for (const obs::FinishedTrace& trace : tracer->traces())
      add_self_times(trace.root, out);
  return out;
}

void write_traces(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::size_t count = 0;
  for (const Tracer* tracer : tracers) count += tracer->traces().size();
  obs::TraceWriter::Options options;
  options.path = path;
  options.queue_capacity = count + 1;  // nothing is dropped
  obs::TraceWriter writer(options);
  for (const Tracer* tracer : tracers)
    for (const obs::FinishedTrace& trace : tracer->traces()) writer.write(trace);
  writer.close();
  if (writer.dropped() != 0) throw std::runtime_error("trace writer dropped traces");
}

}  // namespace perfbench
