//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight observability primitives shared by the pipeline, the
/// command-line tools and the benchmarks: a monotonic Stopwatch, a
/// MetricsRegistry of named counters and timers organized in nested
/// scopes, and its stable JSON rendering. No third-party dependencies;
/// see docs/OBSERVABILITY.md for the data model and the emitted schema.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SUPPORT_METRICS_H
#define AFL_SUPPORT_METRICS_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace afl {

/// Monotonic wall-clock stopwatch (steady_clock; never goes backwards
/// even if the system clock is adjusted). Starts on construction.
class Stopwatch {
public:
  Stopwatch() : Start(Clock::now()) {}

  void reset() { Start = Clock::now(); }

  /// Elapsed time since construction/reset, in seconds.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// Elapsed time in integral nanoseconds.
  uint64_t nanoseconds() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Start)
            .count());
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// Process-wide peak resident set size in KiB (Linux: the VmHWM line of
/// /proc/self/status). Returns 0 when the value is unavailable (other
/// platforms, or an unreadable procfs) — callers emit the metric either
/// way so the schema stays stable.
uint64_t readPeakRssKb();

/// A tree of named metrics. Leaves are integral *counters*, integral
/// *peaks* (a counter that merges by maximum), floating-point *timers*
/// (seconds; by convention their names end in "_seconds") or text.
/// Interior nodes are *scopes*. Insertion order is preserved everywhere,
/// so the JSON rendering is stable across runs.
///
/// Not thread-safe: concurrent producers each fill their own registry
/// and the results are combined with merge() (see driver/BatchRunner).
class MetricsRegistry {
public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(MetricsRegistry &&) noexcept;
  MetricsRegistry &operator=(MetricsRegistry &&) noexcept;

  //===------------------------------------------------------------------===//
  // Scopes
  //===------------------------------------------------------------------===//

  /// Enters (creating on first use) the child scope \p Name of the
  /// current scope. Subsequent add/set/addTime calls land inside it.
  void push(std::string_view Name);
  /// Leaves the current scope; no-op at the root.
  void pop();

  //===------------------------------------------------------------------===//
  // Producers (addressed relative to the current scope)
  //===------------------------------------------------------------------===//

  /// Adds \p Delta to counter \p Name (created at zero on first use).
  void add(std::string_view Name, uint64_t Delta);
  /// Sets counter \p Name to \p Value.
  void set(std::string_view Name, uint64_t Value);
  /// Raises peak \p Name to at least \p Value (created at zero on first
  /// use). A peak reads and renders like a counter; merge() keeps the
  /// larger of two peaks instead of their sum.
  void setMax(std::string_view Name, uint64_t Value);
  /// Adds \p Seconds to timer \p Name (created at zero on first use).
  void addTime(std::string_view Name, double Seconds);
  /// Sets text leaf \p Name to \p Value (rendered as a JSON string;
  /// used for per-item error messages in batch output).
  void setText(std::string_view Name, std::string_view Value);

  //===------------------------------------------------------------------===//
  // Consumers (addressed by '/'-separated path from the root)
  //===------------------------------------------------------------------===//

  /// Value of the counter or peak at \p Path
  /// ("pipeline/solve/propagations"), or 0 if absent.
  uint64_t counter(std::string_view Path) const;
  /// Value of the timer at \p Path, or 0.0 if absent.
  double timer(std::string_view Path) const;
  /// Value of the text leaf at \p Path, or "" if absent.
  std::string text(std::string_view Path) const;
  /// True if any metric or scope exists at \p Path.
  bool has(std::string_view Path) const;

  /// Merges the whole of \p Other into the current scope, creating
  /// scopes as needed: counters and timers add, peaks keep the larger
  /// value, and a text leaf keeps the first non-empty value. Merging into
  /// an empty scope copies \p Other. The batch aggregate is the merge of
  /// its items' metrics (driver/BatchRunner).
  void merge(const MetricsRegistry &Other);

  //===------------------------------------------------------------------===//
  // Serialization
  //===------------------------------------------------------------------===//

  /// Renders the whole tree through json::Writer as a JSON object:
  /// scopes become objects, counters integers, timers fixed-point
  /// seconds. Key order is insertion order. \p Pretty selects
  /// 2-space-indented multi-line output with a trailing newline.
  std::string json(bool Pretty = true) const;

private:
  struct Node;
  Node *resolveScope(std::string_view Name);
  const Node *find(std::string_view Path) const;

  std::unique_ptr<Node> Root;
  std::vector<Node *> Stack; ///< current scope chain; back() is active
};

/// RAII helper: enters a registry scope on construction, leaves on
/// destruction.
class MetricScope {
public:
  MetricScope(MetricsRegistry &Reg, std::string_view Name) : Reg(Reg) {
    Reg.push(Name);
  }
  ~MetricScope() { Reg.pop(); }
  MetricScope(const MetricScope &) = delete;
  MetricScope &operator=(const MetricScope &) = delete;

private:
  MetricsRegistry &Reg;
};

/// RAII helper: adds the elapsed wall time to timer \p Name (in the
/// registry's *current* scope at destruction time) when it goes out of
/// scope.
class ScopedTimer {
public:
  ScopedTimer(MetricsRegistry &Reg, std::string Name)
      : Reg(Reg), Name(std::move(Name)) {}
  ~ScopedTimer() { Reg.addTime(Name, Watch.seconds()); }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  MetricsRegistry &Reg;
  std::string Name;
  Stopwatch Watch;
};

} // namespace afl

#endif // AFL_SUPPORT_METRICS_H
