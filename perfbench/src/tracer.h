// In-memory span recorder for the traced run.
//
// A span is one call into a layer: its name, start and end on the steady
// clock, the span that caused it, and the experiment it belongs to. Spans
// are appended to a vector while the run executes and written out once at
// exit. Only the benchmark's own code opens spans, around the calls it
// makes into the library; the library itself is not instrumented.
//
// Not thread-safe: the traced run drives one worker.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;   // static string, e.g. "sim.run_load"
  int64_t start_ns;   // steady clock
  int64_t end_ns;
  int32_t parent;     // index into the span vector, -1 for a root
  int32_t experiment; // experiment sequence number, -1 outside one
};

struct LayerTime {
  uint64_t count = 0;
  double total_ns = 0;  // summed span durations
  double self_ns = 0;   // minus the time covered by child spans
};

class Tracer {
 public:
  // RAII span: opens on construction, closes on destruction. A null tracer
  // makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int32_t experiment = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  static int64_t now_ns();

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: count, total and self time.
  std::map<std::string, LayerTime> layer_times() const;

  // Writes every span as one JSON array (Chrome trace-event "X" records,
  // microseconds, with parent and experiment in args). Returns false when
  // the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  int32_t open(const char* name, int32_t experiment);
  void close(int32_t index);

  std::vector<Span> spans_;
  int32_t current_ = -1;  // innermost open span
};

}  // namespace perfbench
