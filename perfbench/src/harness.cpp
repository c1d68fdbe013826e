#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double histogramPercentileNanos(const volap::LatencyHistogram& h, double q) {
  using H = volap::LatencyHistogram;
  const std::uint64_t total = h.count();
  if (total == 0) return 0;
  // Rank r (1-based) sits in the bucket whose upper edge quantileNanos
  // returns for q = (r - 0.5) / total; ranks map to buckets monotonically,
  // so binary searches find the bucket's first and last rank.
  auto upperAt = [&](std::uint64_t rank) {
    return h.quantileNanos((static_cast<double>(rank) - 0.5) /
                           static_cast<double>(total));
  };
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  const std::uint64_t edge = upperAt(target);
  std::uint64_t lo = 1, hi = target;  // first rank with upperAt == edge
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi) / 2;
    if (upperAt(mid) < edge) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = target;
  hi = total;  // last rank with upperAt == edge
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi + 1) / 2;
    if (upperAt(mid) > edge) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;
  const int bucket = H::bucketFor(edge);
  const double lower = static_cast<double>(H::bucketLower(bucket));
  const double width = static_cast<double>(H::bucketUpper(bucket)) - lower + 1;
  const double frac = (static_cast<double>(target - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  return lower + frac * width;
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void Report::fail(const std::string& what, std::uint64_t n) {
  failed_ += n;
  std::fprintf(stderr, "perfbench: %llu operation(s) failed: %s\n",
               static_cast<unsigned long long>(n), what.c_str());
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", what.c_str());
}

void Report::endToEnd(const std::string& name, double value, const char* unit) {
  endToEnd_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value, const char* unit) {
  layers_.push_back({name, value, unit});
}

void Report::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

namespace {

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

}  // namespace

std::string Report::endToEndJson() const { return metricsJson(endToEnd_); }

std::string Report::json(bool traced) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": " << metricsJson(traced ? layers_ : endToEnd_) << "}";
  return out.str();
}

namespace {
thread_local std::vector<std::uint32_t> openSpans;
}  // namespace

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

std::uint32_t SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = openSpans.empty() ? 0 : openSpans.back();
  s.startNanos = volap::nowNanos();
  std::lock_guard lock(mu_);
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(s);
  openSpans.push_back(s.id);
  return s.id;
}

void SpanLog::close(std::uint32_t id) {
  const std::uint64_t end = volap::nowNanos();
  if (!openSpans.empty() && openSpans.back() == id) openSpans.pop_back();
  std::lock_guard lock(mu_);
  spans_[id - 1].endNanos = end;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mu_);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.startNanos
        << ", \"end_ns\": " << s.endNanos << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
