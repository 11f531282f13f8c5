#include "common.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "runtime/percentile.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double percentile(std::vector<double> v, double q) {
  return litho::runtime::nearest_rank_percentile(std::move(v), q);
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double MetricList::value(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("no metric " + name);
}

std::string MetricList::json() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(items_[i].name) + ": {\"value\": " +
           fmt_double(items_[i].value) + ", \"unit\": " +
           json_str(items_[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench
