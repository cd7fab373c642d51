//===----------------------------------------------------------------------===//
// Process-wide metrics registry: named counters, gauges, and histograms
// behind lightweight handles, updated with relaxed atomics so any thread
// can bump them without locks. This absorbs the previously fragmented
// self-measurement — qopt::OptStats, AllocStats samples, the cost-model
// profile cache, bit-sliced simulator throughput, verifier obligation
// counts, and DiagnosticEngine totals all surface here — and feeds one
// machine-readable dump (`spirec --metrics-json`, docs/observability.md
// has the catalog).
//
// Cost model: handle lookup (`Registry::counter(...)`) takes a mutex and
// should be hoisted out of hot loops; updates through a handle are a single
// relaxed fetch_add. The hot qopt loops keep their local accumulators and
// flush once per pass, so the registry adds nothing measurable to the
// compile path.
//===----------------------------------------------------------------------===//

#ifndef SPIRE_OBS_METRICS_H
#define SPIRE_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace spire {
namespace obs {

class JsonWriter;

enum class MetricKind : uint8_t { Counter, Gauge, Histogram };

const char *metricKindName(MetricKind K);

/// A point-in-time copy of one metric, as returned by
/// Registry::snapshot().
struct MetricSample {
  std::string Name;
  MetricKind Kind = MetricKind::Counter;
  int64_t Value = 0; ///< Counter total / last gauge value.
  int64_t Count = 0; ///< Histogram: number of observations.
  double Sum = 0;    ///< Histogram: sum of observations.
  double Min = 0;    ///< Histogram: smallest observation (0 if none).
  double Max = 0;    ///< Histogram: largest observation (0 if none).
};

class Registry {
  struct Cell {
    std::string Name;
    MetricKind Kind;
    std::atomic<int64_t> Value{0};
    std::atomic<int64_t> Count{0};
    std::atomic<double> Sum{0.0};
    std::atomic<double> Min{0.0};
    std::atomic<double> Max{0.0};
    explicit Cell(std::string Name, MetricKind Kind)
        : Name(std::move(Name)), Kind(Kind) {}
  };

public:
  /// Monotonic counter handle. Default-constructed handles are inert
  /// no-ops, so structs can embed one unconditionally.
  class Counter {
    friend class Registry;
    std::atomic<int64_t> *C = nullptr;

  public:
    Counter() = default;
    void add(int64_t N) {
      if (C)
        C->fetch_add(N, std::memory_order_relaxed);
    }
    Counter &operator+=(int64_t N) {
      add(N);
      return *this;
    }
    Counter &operator++() {
      add(1);
      return *this;
    }
    int64_t value() const {
      return C ? C->load(std::memory_order_relaxed) : 0;
    }
  };

  /// Last-write-wins gauge handle (plus a max() helper for peaks).
  class Gauge {
    friend class Registry;
    std::atomic<int64_t> *C = nullptr;

  public:
    Gauge() = default;
    void set(int64_t V) {
      if (C)
        C->store(V, std::memory_order_relaxed);
    }
    /// Raises the gauge to \p V if it is below it (racy max is fine for
    /// monitoring).
    void max(int64_t V) {
      if (!C)
        return;
      int64_t Cur = C->load(std::memory_order_relaxed);
      while (Cur < V &&
             !C->compare_exchange_weak(Cur, V, std::memory_order_relaxed))
        ;
    }
    int64_t value() const {
      return C ? C->load(std::memory_order_relaxed) : 0;
    }
  };

  /// Count/sum/min/max histogram handle (no buckets — the consumers are
  /// summary tables, not quantile dashboards).
  class Histogram {
    friend class Registry;
    Cell *H = nullptr;

  public:
    Histogram() = default;
    void observe(double V);
    int64_t count() const {
      return H ? H->Count.load(std::memory_order_relaxed) : 0;
    }
    double sum() const {
      return H ? H->Sum.load(std::memory_order_relaxed) : 0;
    }
  };

  /// Returns the handle for \p Name, registering it on first use.
  /// Handles stay valid for the registry's lifetime (cells live in a
  /// deque and are never removed). Re-requesting an existing name with a
  /// different kind returns an inert handle rather than corrupting the
  /// cell.
  Counter counter(std::string_view Name);
  Gauge gauge(std::string_view Name);
  Histogram histogram(std::string_view Name);

  /// Point-in-time copy of every registered metric, sorted by name.
  std::vector<MetricSample> snapshot() const;

  /// Zeroes every metric's values while keeping registrations (and
  /// outstanding handles) valid. For tests and per-request scoping in
  /// the future daemon mode.
  void reset();

  /// The process-wide registry every subsystem publishes into.
  static Registry &global();

private:
  Cell *cellFor(std::string_view Name, MetricKind Kind);

  mutable std::mutex Mu;
  std::deque<Cell> Cells;
  std::unordered_map<std::string_view, Cell *> ByName;
};

/// Refreshes the process-level gauges (`symbols.interned`,
/// `process.allocations`, `process.peak_rss_kb`) from their live sources.
/// Called right before a snapshot is rendered.
void publishProcessMetrics(Registry &R = Registry::global());

/// Writes `{"name": {"kind": ..., "value": ...}, ...}` (one JSON object,
/// histograms get count/sum/min/max) for \p Samples. Shared by
/// `--metrics-json` and the bench writers so both artifacts carry the same
/// metrics shape.
void writeMetricsObject(JsonWriter &W, const std::vector<MetricSample> &Samples);

} // namespace obs
} // namespace spire

#endif // SPIRE_OBS_METRICS_H
