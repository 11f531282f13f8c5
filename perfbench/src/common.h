// Shared helpers of the serving benchmark: clocks, sample statistics and the
// ordered metric list every phase appends to.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of a sample (mean of the two middle values for even sizes);
/// 0 for an empty sample.
double median(std::vector<double> v);

/// Smallest value of a sample; 0 for an empty sample.
double minimum(const std::vector<double>& v);

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// Calls @p fn @p reps times and returns the median wall time in ms.
template <typename F>
double median_ms(int reps, F&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

/// One named measurement with its unit, in emission order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  const std::vector<Metric>& items() const { return items_; }
  /// Value of metric @p name; throws std::out_of_range if absent.
  double value(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...} with full-precision values.
  std::string json() const;

 private:
  std::vector<Metric> items_;
};

/// Formats a double with every significant digit (round-trip precision).
std::string fmt_double(double v);

/// JSON string literal for @p s.
std::string json_str(const std::string& s);

}  // namespace perfbench
