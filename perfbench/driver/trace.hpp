// In-memory span recorder for the benchmark's traced run.
//
// The benchmark wraps each call it makes into a DASC layer's public
// function in a ScopedSpan. Spans are held in memory, reduced to per-layer
// self time after each operation, and written out as Chrome trace-event
// JSON when the run ends. A null Tracer makes every ScopedSpan a no-op, so
// the untraced operations pay nothing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;  ///< "<layer>.<call>"; the root span of an op is "op"
  int id = 0;
  int parent = -1;   ///< -1 for the root span of an operation
  int op = 0;        ///< operation id shared by all spans of one operation
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t n = 0;    ///< bucket size, for per-bucket spans
  std::string backend;  ///< bucket backend, for per-bucket spans

  double seconds() const {
    return 1e-9 * static_cast<double>(end_ns - start_ns);
  }
};

class Tracer {
 public:
  int next_id();
  void record(Span span);
  /// Spans of one operation (a copy, safe to use after workers finish).
  std::vector<Span> spans_of(int op) const;
  /// Write every recorded span as Chrome trace-event JSON.
  void write_chrome_json(const std::string& path) const;
  std::int64_t now_ns() const;

 private:
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  int next_id_ = 0;          // guarded by mutex_
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Records one span from construction to destruction. Thread-safe: spans of
/// parallel bucket consumers name their parent explicitly.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent, int op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return span_.id; }
  void annotate(std::size_t n, std::string backend);

 private:
  Tracer* tracer_;
  Span span_;
};

/// Per-operation reduction of a span tree.
struct SelfTimes {
  double op_s = 0.0;            ///< root span duration
  double unattributed_s = 0.0;  ///< root time no layer span covers
  /// Self time per layer (name prefix before the first '.'): span duration
  /// minus the union of its children. Parallel sibling spans each count
  /// their own self time, so a layer's figure may exceed wall time.
  std::map<std::string, double> layer_s;
};

SelfTimes self_times(const std::vector<Span>& spans);

}  // namespace perfbench
