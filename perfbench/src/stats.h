// Arithmetic shared by the benchmark's reporting: medians and quartiles,
// the "highest percentile with at least ten samples beyond it" rule,
// time-to-bug charging for trials that missed, ratio-with-base formatting,
// and span self time. Header-only and free of SysTest types so the
// self-test (tests/stats_test.cc) exercises exactly what the benchmark uses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `xs` (mean of the two middle values for even sizes); 0 when
/// empty.
inline double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/// The three cut points of Python's `statistics.quantiles(xs, n=4)` (default
/// "exclusive" method), so the spreads the benchmark reports match the ones
/// computed over its JSON output. Needs at least two values; a single value
/// is returned as all three quartiles, and an empty input as zeros.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

inline Quartiles QuartilesOf(std::vector<double> xs) {
  Quartiles out;
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  const long ld = static_cast<long>(xs.size());
  if (ld == 1) {
    out.q1 = out.q2 = out.q3 = xs[0];
    return out;
  }
  constexpr long kN = 4;
  const long m = ld + 1;
  double cuts[3];
  for (long i = 1; i < kN; ++i) {
    long j = i * m / kN;
    j = j < 1 ? 1 : (j > ld - 1 ? ld - 1 : j);
    const long delta = i * m - j * kN;
    cuts[i - 1] = (xs[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(kN - delta) +
                   xs[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  static_cast<double>(kN);
  }
  out.q1 = cuts[0];
  out.q2 = cuts[1];
  out.q3 = cuts[2];
  return out;
}

/// Linear-interpolation percentile (p in [0, 100]) of `xs`; 0 when empty.
inline double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

/// The highest of the candidate percentiles (99.9, 99, 95, 90, 75, 50) that
/// leaves at least `min_beyond` of `n` samples strictly above its rank, so a
/// reported tail percentile is never set by one or two outliers. Returns 0
/// when even the median lacks that many samples beyond it.
inline double HighestSupportedPercentile(std::size_t n,
                                         std::size_t min_beyond = 10) {
  constexpr double kCandidates[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kCandidates) {
    // Samples beyond the p-th percentile: n * (1 - p/100), computed in
    // tenths of a percent to stay exact for the candidates above.
    const auto tenths = static_cast<std::uint64_t>(std::llround(p * 10.0));
    const std::uint64_t beyond_x1000 = static_cast<std::uint64_t>(n) *
                                       (1000 - tenths);
    if (beyond_x1000 >= static_cast<std::uint64_t>(min_beyond) * 1000) {
      return p;
    }
  }
  return 0.0;
}

/// One bug-hunting trial as the time-to-bug statistics see it.
struct TrialOutcome {
  bool found = false;
  /// Wall seconds of the trial: it stops at the bug, or, when it misses,
  /// when its cap is exhausted, so a miss is charged its full cap's time.
  double seconds = 0.0;
  std::uint64_t execs_to_bug = 0; ///< 1-based execution that found it
  std::uint64_t cap = 0;          ///< per-trial execution cap
};

/// Executions charged to a trial: its executions to bug, or its cap.
inline std::uint64_t ChargedExecutions(const TrialOutcome& t) {
  return t.found ? t.execs_to_bug : t.cap;
}

/// A ratio printed with its base, e.g. "0.2500 (30/120)". A zero
/// denominator prints as "0 (0/0)" and evaluates to 0: the layer did no
/// work of that kind.
struct RatioWithBase {
  double num = 0.0;
  double den = 0.0;

  [[nodiscard]] double Value() const { return den == 0.0 ? 0.0 : num / den; }

  [[nodiscard]] std::string Format() const {
    char buf[96];
    if (den == 0.0) {
      std::snprintf(buf, sizeof(buf), "0 (%.0f/0)", num);
    } else {
      std::snprintf(buf, sizeof(buf), "%.4f (%.0f/%.0f)", Value(), num, den);
    }
    return buf;
  }
};

/// Half-open time interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time of a span: its duration minus the part of it that the union of
/// its children's intervals covers (children clipped to the parent, nested
/// or overlapping children counted once, adjacent children not merged into
/// a gap).
inline std::int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  std::int64_t covered = 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::int64_t cursor = parent.start;
  for (const Interval& child : children) {
    const std::int64_t s = std::max({child.start, cursor, parent.start});
    const std::int64_t e = std::min(child.end, parent.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return (parent.end - parent.start) - covered;
}

}  // namespace perfbench
