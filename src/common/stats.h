// Small statistics helpers used by the benchmark harnesses.
//
// The paper's figures are either time series (Fig 3, Fig 4, Fig 5), CDFs
// (Fig 6), or bar groups (Fig 8, Fig 9). These helpers accumulate samples and
// render them as CSV so a bench binary can print exactly the series a figure
// plots.
#ifndef JGRE_COMMON_STATS_H_
#define JGRE_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace jgre {

// Accumulates scalar samples; summary statistics on demand.
class Summary {
 public:
  void Add(double sample);

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  // Linear-interpolated percentile, p in [0, 100].
  double Percentile(double p) const;

  const std::vector<double>& samples() const { return samples_; }

  // CDF as (value, cumulative_probability) pairs over `points` quantiles.
  std::vector<std::pair<double, double>> Cdf(std::size_t points = 100) const;

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// (time, value) series with CSV rendering.
class TimeSeries {
 public:
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void Add(TimeUs t, double value) { points_.emplace_back(t, value); }

  const std::string& name() const { return name_; }
  const std::vector<std::pair<TimeUs, double>>& points() const {
    return points_;
  }
  bool empty() const { return points_.empty(); }

  // Downsamples to at most `max_points` evenly spaced points (keeps ends).
  TimeSeries Downsample(std::size_t max_points) const;

 private:
  std::string name_;
  std::vector<std::pair<TimeUs, double>> points_;
};

}  // namespace jgre

#endif  // JGRE_COMMON_STATS_H_
