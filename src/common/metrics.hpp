// Pipeline-wide metrics: named counters, timers, and gauges collected in a
// thread-safe registry and exported as stable-schema JSON.
//
// The paper's headline claims are stage-level costs (LSH signatures,
// bucketing, per-bucket Gram O(sum Ni^2), eigensolve, K-means — Figs. 1, 6,
// Table 3), so every pipeline stage reports into a MetricsRegistry handed
// down through DascParams. Instruments are cheap enough to stay on in
// release builds: one relaxed atomic add per event, two clock reads per
// ScopedTimer, and every instrumentation site is null-safe (a null registry
// costs a pointer test).
//
// Counter semantics are deterministic work counts (points hashed, buckets,
// K-means iterations): for a fixed seed they are identical across thread
// counts and in-flight budgets, which makes them usable as CI regression
// gates. Timers and gauges report wall-clock and high-water observations
// and naturally vary run to run.
//
// JSON schema (stable; validated by scripts/check_bench_json.py):
//   {
//     "counters": {"name": <int>, ...},
//     "timers_ms": {"name": {"count": <int>, "total_ms": <float>}, ...},
//     "gauges": {"name": <int>, ...}
//   }
// Keys are sorted within each section, so output is byte-stable for equal
// observations.
//
// snapshot()/merge() copy a whole registry out and fold one in: how a
// worker process reports each task's metrics (DESIGN.md section 13).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace dasc {

/// Exact point-in-time copy of a whole MetricsRegistry, sorted by name.
/// Merging it into another registry adds counters and timers (nanosecond
/// totals, not rounded milliseconds); a gauge that was written with add()
/// since the last reset adds too, and any other gauge keeps the maximum.
struct MetricsSnapshot {
  struct Timer {
    std::int64_t count = 0;
    std::int64_t nanos = 0;
  };
  struct Gauge {
    std::int64_t value = 0;
    bool sums = false;  ///< written with add(): merges by summing
  };
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, Timer> timers;
  std::map<std::string, Gauge> gauges;
};

/// Thread-safe registry of named metric instruments. Instrument references
/// returned by counter()/timer()/gauge() stay valid for the registry's
/// lifetime (reset() included), so hot paths may cache them.
class MetricsRegistry {
 public:
  /// Monotonic event count. Deterministic for deterministic work.
  class Counter {
   public:
    void add(std::int64_t delta = 1) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::int64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }

   private:
    friend class MetricsRegistry;
    std::atomic<std::int64_t> value_{0};
  };

  /// Accumulated wall time plus sample count, aggregated across threads
  /// (per-stage totals, not per-thread maxima).
  class Timer {
   public:
    void record_nanos(std::int64_t nanos) {
      nanos_.fetch_add(nanos, std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
    }
    void record_seconds(double seconds) {
      record_nanos(static_cast<std::int64_t>(seconds * 1e9));
    }
    double total_ms() const {
      return static_cast<double>(nanos_.load(std::memory_order_relaxed)) /
             1e6;
    }
    std::int64_t count() const {
      return count_.load(std::memory_order_relaxed);
    }

   private:
    friend class MetricsRegistry;
    std::atomic<std::int64_t> nanos_{0};
    std::atomic<std::int64_t> count_{0};
  };

  /// Last-written or high-water observation (e.g. peak resident bytes).
  class Gauge {
   public:
    void set(std::int64_t value) {
      value_.store(value, std::memory_order_relaxed);
    }
    /// Accumulate into the gauge (byte-traffic style observations that sum
    /// contributions from many short-lived instruments, e.g. spill I/O).
    /// Marks the gauge as summing, so merged snapshots add it too.
    void add(std::int64_t delta) {
      value_.fetch_add(delta, std::memory_order_relaxed);
      sums_.store(true, std::memory_order_relaxed);
    }
    /// Keep the maximum of the current and the observed value.
    void set_max(std::int64_t value) {
      std::int64_t seen = value_.load(std::memory_order_relaxed);
      while (seen < value &&
             !value_.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed)) {
      }
    }
    std::int64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }

   private:
    friend class MetricsRegistry;
    std::atomic<std::int64_t> value_{0};
    std::atomic<bool> sums_{false};
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find or create the named instrument.
  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Point-in-time value lookups (0 / empty when the name is absent).
  std::int64_t counter_value(std::string_view name) const;
  double timer_total_ms(std::string_view name) const;
  std::int64_t timer_count(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;

  /// Every instrument, exactly (see MetricsSnapshot): the JSON writer's,
  /// the worker task report's and the tests' view.
  MetricsSnapshot snapshot() const;
  /// snapshot().counters.
  std::map<std::string, std::int64_t> counters_snapshot() const;
  /// Fold a snapshot in under MetricsSnapshot's rules, creating missing
  /// instruments.
  void merge(const MetricsSnapshot& snapshot);

  /// Zero every instrument (and clear each gauge's summing mark).
  /// References remain valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

/// RAII wall-clock sample into a Timer. Null-safe: a null timer/registry
/// skips the clock reads entirely. Nesting is natural — each ScopedTimer
/// carries its own start time, so inner scopes accumulate into their own
/// timers while outer scopes keep running.
class ScopedTimer {
 public:
  explicit ScopedTimer(MetricsRegistry::Timer* timer);
  /// Convenience: resolves `name` in `registry` (no-op when null).
  ScopedTimer(MetricsRegistry* registry, std::string_view name);
  ~ScopedTimer() { stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Record now instead of at scope exit (idempotent).
  void stop();

 private:
  MetricsRegistry::Timer* timer_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

namespace metrics {

/// Serialize the registry to the stable JSON schema documented above.
std::string to_json(const MetricsRegistry& registry);

/// Write to_json(registry) to `path` (throws std::runtime_error on I/O
/// failure).
void write_json(const MetricsRegistry& registry, const std::string& path);

}  // namespace metrics

}  // namespace dasc
