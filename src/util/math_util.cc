#include "util/math_util.h"

#include <cmath>

#include "util/status.h"

namespace sqp {
namespace {

double Sum(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

double EntropyLog10(std::span<const double> probs) {
  const double total = Sum(probs);
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double p : probs) {
    if (p <= 0.0) continue;
    const double pn = p / total;
    h -= pn * std::log10(pn);
  }
  return h;
}

double KlDivergenceLog10(std::span<const double> p, std::span<const double> q,
                         double epsilon_floor) {
  SQP_CHECK(p.size() == q.size());
  const double pt = Sum(p);
  const double qt = Sum(q);
  if (pt <= 0.0 || qt <= 0.0) return 0.0;
  double kl = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    const double pi = p[i] / pt;
    if (pi <= 0.0) continue;
    double qi = q[i] / qt;
    if (qi < epsilon_floor) qi = epsilon_floor;
    kl += pi * std::log10(pi / qi);
  }
  return kl;
}

void NormalizeInPlace(std::vector<double>* values) {
  double total = 0.0;
  for (double v : *values) total += v;
  if (total <= 0.0) return;
  for (double& v : *values) v /= total;
}

double EstimatePowerLawAlpha(
    const std::vector<std::pair<double, double>>& value_and_count,
    double x_min) {
  SQP_CHECK(x_min > 0.5);
  double n = 0.0;
  double log_sum = 0.0;
  for (const auto& [value, count] : value_and_count) {
    if (value < x_min || count <= 0.0) continue;
    n += count;
    log_sum += count * std::log(value / (x_min - 0.5));
  }
  if (n <= 0.0 || log_sum <= 0.0) return 0.0;
  return 1.0 + n / log_sum;
}

}  // namespace sqp
