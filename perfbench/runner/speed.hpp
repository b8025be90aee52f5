// Host speed probe: scales host times to a reference machine speed.
//
// The benchmark runs on a shared machine whose speed drifts by 20–50 %
// within minutes (other tenants on the same cores), far more than the
// regressions the host metrics should catch. The probe is a fixed piece of
// benchmark-owned work — scalar SHA-256 compression of 16 KiB, compiled
// into the runner and never into the program — timed every few
// milliseconds between repetitions. A host time measured between two probe
// samples is multiplied by kReferenceSeconds / (the probe's time around it),
// so a slower machine scales it down and a faster one up, while a change to
// the program moves it as before (the probe runs none of the program's
// code). The program is dominated by the same kind of work (SHA-256 in OTS
// keys and verification, HMAC in Bracha), and on the machine this was built
// on the quartile spread of one input's repetition medians over six runs
// fell from 0.19–0.25 raw to 0.016–0.024 scaled. See README.md, "Host
// noise".
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `xs` (the mean of the middle two for an even count; 0 if empty).
double median(std::vector<double> xs);

class SpeedProbe {
 public:
  /// The probe's time on the reference machine: scaled host times read as
  /// if measured where one probe takes this long.
  static constexpr double kReferenceSeconds = 80e-6;

  /// Times the probe once.
  void sample();
  /// Times the probe if the last sample is older than a few milliseconds.
  void sample_if_due();
  /// The index of the next sample: a host time measured from now until the
  /// next sample() is scaled by the samples around this mark.
  [[nodiscard]] std::size_t mark() const { return samples_.size(); }
  /// Factor that scales a host time measured at `mark` to the reference
  /// speed: kReferenceSeconds over the median of the two samples before and
  /// the two after it.
  [[nodiscard]] double scale(std::size_t mark) const;
  /// Median probe time over the run, in seconds.
  [[nodiscard]] double median_seconds() const;

 private:
  std::vector<double> samples_;
  std::chrono::steady_clock::time_point last_{};
  std::uint64_t sink_ = 0;  // keeps the probe's result alive
};

}  // namespace perfbench
