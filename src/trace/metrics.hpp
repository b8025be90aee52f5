// Named counters and fixed-bucket histograms.
//
// A Tracer owns one MetricsRegistry for the metrics of its repetition.
// Components count in their own plain Stats structs (MediumStats,
// TcpHost::Stats, SpatialStats, ...); harness::Repetition::report exports
// those into the tracer's registry once per repetition, and ambient
// instrumentation (trace::count/observe) bumps it directly. Storage is
// std::map so iteration — and therefore every exported summary — is in
// deterministic (lexicographic) order. Lookups take a std::string_view and
// allocate only when they create the name. Map nodes have stable
// addresses, so hot paths may resolve a Counter*/Histogram* once and bump
// through the pointer.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace turq::trace {

/// Monotonic event counter. add() never wraps in practice (64-bit); value()
/// is the running total since construction.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Histogram over fixed upper-bound buckets: observation x lands in the
/// first bucket with bound >= x; anything above the last bound lands in the
/// implicit overflow bucket (counts().back()).
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

  void merge(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Finds or creates the named counter. The reference stays valid for the
  /// registry's lifetime.
  Counter& counter(std::string_view name);

  /// Finds or creates the named histogram; `bounds` (ascending upper
  /// bounds) apply only on creation.
  Histogram& histogram(std::string_view name,
                       std::initializer_list<double> bounds);

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters()
      const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const {
    return histograms_;
  }

  /// Adds `other`'s counters and histograms into this registry (histograms
  /// must agree on bucket bounds).
  void merge(const MetricsRegistry& other);

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace turq::trace
