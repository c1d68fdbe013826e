// Benchmark harness: command-line arguments, the result report (the JSON
// line the benchmark ends with), latency percentiles, peak memory, and the
// span log of the traced run.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/histogram.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Exact percentile (linear interpolation between order statistics, as
/// numpy's default) of raw samples.
double percentile(std::vector<double> samples, double q);

/// Percentile of a LatencyHistogram, linearly interpolated inside the
/// bucket that holds it. The histogram's own quantile returns a bucket's
/// upper edge, which moves in ~6% steps and would read the same on many
/// runs; interpolating recovers a continuous value from the same counts.
double histogramPercentileNanos(const volap::LatencyHistogram& h, double q);

/// Peak resident set size of this process (VmHWM), in MB.
double peakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `attempted`/`failed` count workload operations;
/// `correct` turns false on any oracle mismatch. Used from one thread.
class Report {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what, std::uint64_t n = 1);
  /// Oracle check: a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);

  void endToEnd(const std::string& name, double value, const char* unit);
  void layer(const std::string& name, double value, const char* unit);
  /// Human-readable line on stdout (never the last line).
  void note(const std::string& line);

  bool correct() const { return correct_; }
  /// The final JSON line: end-to-end metrics, or per-layer ones when traced.
  std::string json(bool traced) const;
  /// End-to-end metrics of this run as a JSON object (printed as a note in
  /// traced runs, so the tracing overhead can be read off).
  std::string endToEndJson() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<Metric> endToEnd_;
  std::vector<Metric> layers_;
};

/// Spans recorded around the benchmark's own calls into each layer: name,
/// start, end and parent. Active only in traced runs; written as JSON when
/// the benchmark ends.
class SpanLog {
 public:
  static SpanLog& instance();

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    const char* name = "";
    std::uint64_t startNanos = 0;
    std::uint64_t endNanos = 0;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op unless the span log is enabled.
class Span {
 public:
  explicit Span(const char* name)
      : id_(SpanLog::instance().enabled() ? SpanLog::instance().open(name)
                                          : 0) {}
  ~Span() {
    if (id_ != 0) SpanLog::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_;
};

inline double secondsSince(std::uint64_t t0) {
  return static_cast<double>(volap::nowNanos() - t0) / 1e9;
}

}  // namespace perfbench
