#include "src/sim/distributions.h"

#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <stdexcept>

namespace ckptsim::sim {

Deterministic::Deterministic(double value) : value_(value) {
  if (value < 0.0) throw std::invalid_argument("Deterministic: negative latency");
}

std::string Deterministic::describe() const {
  std::ostringstream s;
  s << "Deterministic(" << value_ << ")";
  return s.str();
}

Exponential::Exponential(double mean) : mean_(mean) {
  if (!(mean > 0.0)) throw std::invalid_argument("Exponential: mean must be > 0");
}

double Exponential::cdf(double x) const noexcept {
  if (x < 0.0) return 0.0;
  return 1.0 - std::exp(-x / mean_);
}

std::string Exponential::describe() const {
  std::ostringstream s;
  s << "Exponential(mean=" << mean_ << ")";
  return s.str();
}

MaxOfExponentials::MaxOfExponentials(std::uint64_t n, double per_item_mean)
    : n_(n), per_item_mean_(per_item_mean) {
  if (n == 0) throw std::invalid_argument("MaxOfExponentials: n must be >= 1");
  if (!(per_item_mean > 0.0)) {
    throw std::invalid_argument("MaxOfExponentials: mean must be > 0");
  }
}

double MaxOfExponentials::sample_from_unit(double u) const noexcept {
  // Inversion: U^(1/n) is the max of n uniforms; transform through the
  // exponential quantile.  Computed in log space to stay accurate for
  // n up to ~2^30 (Figure 5 scales to a billion processors).
  // log(1 - u^{1/n}) = log(-expm1(log(u)/n)).  0 and the subnormals are
  // all transformed as the smallest normal double, which keeps the
  // transform non-decreasing down to 0.
  const double log_u = std::log(u < std::numeric_limits<double>::min()
                                    ? std::numeric_limits<double>::min()
                                    : u);
  const double inner = -std::expm1(log_u / static_cast<double>(n_));
  return -per_item_mean_ * std::log(inner);
}

double MaxOfExponentials::sample(Rng& rng) const { return sample_from_unit(rng.uniform()); }

double MaxOfExponentials::harmonic(std::uint64_t n) noexcept {
  if (n <= 128) {
    double h = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
    return h;
  }
  // H_n = ln n + gamma + 1/(2n) - 1/(12n^2) + O(n^-4)
  const double nd = static_cast<double>(n);
  return std::log(nd) + std::numbers::egamma + 0.5 / nd - 1.0 / (12.0 * nd * nd);
}

double MaxOfExponentials::mean() const { return per_item_mean_ * harmonic(n_); }

double MaxOfExponentials::cdf(double y) const noexcept {
  if (y < 0.0) return 0.0;
  const double f = 1.0 - std::exp(-y / per_item_mean_);
  return std::pow(f, static_cast<double>(n_));
}

double MaxOfExponentials::quantile(double p) const {
  if (!(p >= 0.0 && p < 1.0)) throw std::invalid_argument("MaxOfExponentials::quantile");
  if (p == 0.0) return 0.0;
  const double inner = -std::expm1(std::log(p) / static_cast<double>(n_));
  return -per_item_mean_ * std::log(inner);
}

std::string MaxOfExponentials::describe() const {
  std::ostringstream s;
  s << "MaxOfExponentials(n=" << n_ << ", per_item_mean=" << per_item_mean_ << ")";
  return s.str();
}

HyperExponential::HyperExponential(double p1, double mean1, double mean2)
    : p1_(p1), mean1_(mean1), mean2_(mean2) {
  if (!(p1 >= 0.0 && p1 <= 1.0)) throw std::invalid_argument("HyperExponential: p1 in [0,1]");
  if (!(mean1 > 0.0) || !(mean2 > 0.0)) {
    throw std::invalid_argument("HyperExponential: means must be > 0");
  }
}

double HyperExponential::sample(Rng& rng) const {
  return rng.exponential_mean(rng.bernoulli(p1_) ? mean1_ : mean2_);
}

double HyperExponential::mean() const { return p1_ * mean1_ + (1.0 - p1_) * mean2_; }

std::string HyperExponential::describe() const {
  std::ostringstream s;
  s << "HyperExponential(p1=" << p1_ << ", mean1=" << mean1_ << ", mean2=" << mean2_ << ")";
  return s.str();
}

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  if (!(shape > 0.0) || !(scale > 0.0)) {
    throw std::invalid_argument("Weibull: shape and scale must be > 0");
  }
}

double Weibull::sample_from_unit(double unit) const noexcept {
  const double u = 1.0 - unit;
  return scale_ * std::pow(-std::log(u), 1.0 / shape_);
}

double Weibull::sample(Rng& rng) const { return sample_from_unit(rng.uniform()); }

double Weibull::mean() const { return scale_ * std::tgamma(1.0 + 1.0 / shape_); }

std::string Weibull::describe() const {
  std::ostringstream s;
  s << "Weibull(shape=" << shape_ << ", scale=" << scale_ << ")";
  return s.str();
}

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi) {
  if (!(hi > lo)) throw std::invalid_argument("Uniform: hi must exceed lo");
}

std::string Uniform::describe() const {
  std::ostringstream s;
  s << "Uniform(" << lo_ << ", " << hi_ << ")";
  return s.str();
}

}  // namespace ckptsim::sim
