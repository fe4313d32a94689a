#include "common/stats.h"

#include <cmath>
#include <limits>

namespace pairwisehist {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-15;
constexpr double kFpMin = 1e-300;

// std::lgamma is not thread-safe on glibc/BSD libms: it writes the global
// `signgam` on every call, a data race when parallel builds or concurrent
// queries evaluate chi-squared quantiles at the same time (caught by the TSan
// CI job). Use the reentrant variant where available; every argument here
// is positive, so the sign output is irrelevant.
double LGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__) || defined(_REENTRANT)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

// Series representation of P(a,x), converges quickly for x < a + 1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LGamma(a));
}

// Continued fraction for Q(a,x) (modified Lentz), converges for x >= a + 1.
double GammaQContinuedFraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - LGamma(a)) * h;
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  if (!(a > 0) || x < 0 || std::isnan(a) || std::isnan(x)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (x == 0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  if (!(a > 0) || x < 0 || std::isnan(a) || std::isnan(x)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (x == 0) return 1.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double Chi2Cdf(double x, double df) {
  if (x <= 0) return 0.0;
  return RegularizedGammaP(df / 2.0, x / 2.0);
}

double Chi2Quantile(double p, double df) {
  if (!(p > 0.0) || !(p < 1.0) || !(df > 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Wilson–Hilferty: chi2 ≈ df * (1 - 2/(9 df) + z sqrt(2/(9 df)))^3.
  double z = NormalQuantile(p);
  double t = 1.0 - 2.0 / (9.0 * df) + z * std::sqrt(2.0 / (9.0 * df));
  double x = df * t * t * t;
  if (x <= 0 || std::isnan(x)) x = df;  // fall back to the mean

  // Newton refinement on F(x) - p = 0; the chi-squared pdf is the derivative.
  double lo = 0.0, hi = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < 100; ++iter) {
    double f = Chi2Cdf(x, df) - p;
    if (f > 0) {
      hi = x;
    } else {
      lo = x;
    }
    double log_pdf = (df / 2.0 - 1.0) * std::log(x) - x / 2.0 -
                     LGamma(df / 2.0) - (df / 2.0) * std::log(2.0);
    double pdf = std::exp(log_pdf);
    double step = (pdf > 0) ? f / pdf : 0.0;
    double next = x - step;
    // Keep the iterate inside the bisection bracket.
    if (!(next > lo) || !(next < hi) || pdf <= 0) {
      next = std::isinf(hi) ? (lo > 0 ? lo * 2.0 : 1.0) : (lo + hi) / 2.0;
    }
    if (std::fabs(next - x) < 1e-12 * (1.0 + std::fabs(x))) {
      x = next;
      break;
    }
    x = next;
  }
  return x;
}

double Chi2CriticalValue(double alpha, double df) {
  return Chi2Quantile(1.0 - alpha, df);
}

double NormalCdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double NormalQuantile(double p) {
  if (!(p > 0.0) || !(p < 1.0)) {
    if (p == 0.0) return -std::numeric_limits<double>::infinity();
    if (p == 1.0) return std::numeric_limits<double>::infinity();
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double x;
  if (p < plow) {
    double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    double q = p - 0.5;
    double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley step using the exact CDF for ~1e-12 accuracy.
  double e = NormalCdf(x) - p;
  double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double Chi2UniformStatistic(const uint64_t* counts, int s, uint64_t total) {
  if (s <= 0 || total == 0) return 0.0;
  double expected = static_cast<double>(total) / s;
  double stat = 0.0;
  for (int r = 0; r < s; ++r) {
    double diff = static_cast<double>(counts[r]) - expected;
    stat += diff * diff / expected;
  }
  return stat;
}

int TerrellScottSubBins(uint64_t unique_values) {
  if (unique_values <= 1) return 1;
  double s = std::ceil(std::cbrt(2.0 * static_cast<double>(unique_values)));
  return static_cast<int>(s);
}

}  // namespace pairwisehist
