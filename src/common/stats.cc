#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace jgre {

void Summary::Add(double sample) {
  samples_.push_back(sample);
  sorted_valid_ = false;
}

double Summary::mean() const {
  if (samples_.empty()) return 0;
  double sum = 0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0;
  const double m = mean();
  double acc = 0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

void Summary::EnsureSorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Summary::min() const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  return sorted_.front();
}

double Summary::max() const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  return sorted_.back();
}

double Summary::Percentile(double p) const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  if (p <= 0) return sorted_.front();
  if (p >= 100) return sorted_.back();
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1 - frac) + sorted_[lo + 1] * frac;
}

std::vector<std::pair<double, double>> Summary::Cdf(std::size_t points) const {
  std::vector<std::pair<double, double>> cdf;
  if (samples_.empty() || points == 0) return cdf;
  EnsureSorted();
  cdf.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double prob =
        static_cast<double>(i + 1) / static_cast<double>(points);
    const std::size_t idx = std::min(
        sorted_.size() - 1,
        static_cast<std::size_t>(prob * static_cast<double>(sorted_.size())));
    cdf.emplace_back(sorted_[idx], prob);
  }
  return cdf;
}

TimeSeries TimeSeries::Downsample(std::size_t max_points) const {
  if (points_.size() <= max_points || max_points < 2) return *this;
  TimeSeries out(name_);
  const double stride = static_cast<double>(points_.size() - 1) /
                        static_cast<double>(max_points - 1);
  for (std::size_t i = 0; i < max_points; ++i) {
    const auto& p = points_[static_cast<std::size_t>(
        std::min<double>(std::round(static_cast<double>(i) * stride),
                         static_cast<double>(points_.size() - 1)))];
    out.Add(p.first, p.second);
  }
  return out;
}

}  // namespace jgre
