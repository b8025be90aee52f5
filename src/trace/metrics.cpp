#include "trace/metrics.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace turq::trace {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  TURQ_ASSERT_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                  "histogram bounds must ascend");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  if (counts_.empty()) counts_.assign(1, 0);  // bound-less: overflow only
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
}

void Histogram::merge(const Histogram& other) {
  if (counts_.empty()) {
    *this = other;
    return;
  }
  TURQ_ASSERT_MSG(bounds_ == other.bounds_,
                  "merging histograms with different buckets");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(name, Counter{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::initializer_list<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::vector<double>(bounds)))
      .first->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].add(c.value());
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

}  // namespace turq::trace
