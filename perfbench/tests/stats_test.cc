// Self-test of the benchmark's arithmetic (src/stats.h). Plain asserts
// that stay on in every build; exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

#define CHECK(cond) Check((cond), #cond, __LINE__)

void TestMedian() {
  using perfbench::Median;
  CHECK(Median({}) == 0.0);
  CHECK(Median({3.0}) == 3.0);
  CHECK(Median({5.0, 1.0, 3.0}) == 3.0);
  CHECK(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestQuartilesMatchPython() {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> xs;
  for (int i = 10; i >= 1; --i) xs.push_back(i);
  const perfbench::Quartiles q = perfbench::QuartilesOf(xs);
  CHECK(Near(q.q1, 2.75));
  CHECK(Near(q.q2, 5.5));
  CHECK(Near(q.q3, 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const perfbench::Quartiles two = perfbench::QuartilesOf({2.0, 1.0});
  CHECK(Near(two.q1, 0.75));
  CHECK(Near(two.q2, 1.5));
  CHECK(Near(two.q3, 2.25));
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const perfbench::Quartiles five =
      perfbench::QuartilesOf({5.0, 4.0, 3.0, 2.0, 1.0});
  CHECK(Near(five.q1, 1.5));
  CHECK(Near(five.q2, 3.0));
  CHECK(Near(five.q3, 4.5));
}

void TestPercentile() {
  using perfbench::Percentile;
  CHECK(Percentile({}, 90) == 0.0);
  CHECK(Near(Percentile({1, 2, 3, 4, 5}, 50), 3.0));
  CHECK(Near(Percentile({1, 2, 3, 4, 5}, 90), 4.6));
  CHECK(Near(Percentile({1, 2, 3, 4, 5}, 100), 5.0));
  CHECK(Near(Percentile({7}, 99), 7.0));
}

void TestHighestSupportedPercentile() {
  using perfbench::HighestSupportedPercentile;
  CHECK(HighestSupportedPercentile(120) == 90.0);   // 12 beyond p90, 6 beyond p95
  CHECK(HighestSupportedPercentile(100) == 90.0);   // exactly 10 beyond p90
  CHECK(HighestSupportedPercentile(99) == 75.0);    // 9.9 beyond p90
  CHECK(HighestSupportedPercentile(200) == 95.0);   // 10 beyond p95
  CHECK(HighestSupportedPercentile(1000) == 99.0);  // 10 beyond p99
  CHECK(HighestSupportedPercentile(10000) == 99.9);
  CHECK(HighestSupportedPercentile(20) == 50.0);
  CHECK(HighestSupportedPercentile(19) == 0.0);
  CHECK(HighestSupportedPercentile(30, 3) == 90.0);
}

void TestCappedMissCharging() {
  perfbench::TrialOutcome found;
  found.found = true;
  found.seconds = 0.25;
  found.execs_to_bug = 17;
  found.cap = 1500;
  perfbench::TrialOutcome missed;
  missed.found = false;
  missed.seconds = 4.0;
  missed.execs_to_bug = 0;
  missed.cap = 1500;
  CHECK(perfbench::ChargedExecutions(found) == 17);
  CHECK(perfbench::ChargedExecutions(missed) == 1500);
  // A miss moves the medians up to its full cap, never down to zero.
  std::vector<double> execs = {
      static_cast<double>(perfbench::ChargedExecutions(found)),
      static_cast<double>(perfbench::ChargedExecutions(missed)),
      static_cast<double>(perfbench::ChargedExecutions(missed))};
  CHECK(perfbench::Median(execs) == 1500.0);
  std::vector<double> ttb = {found.seconds, missed.seconds, missed.seconds};
  CHECK(perfbench::Median(ttb) == 4.0);
}

void TestRatioFormatting() {
  const perfbench::RatioWithBase r{30, 120};
  CHECK(Near(r.Value(), 0.25));
  CHECK(r.Format() == "0.2500 (30/120)");
  const perfbench::RatioWithBase none{0, 0};
  CHECK(none.Value() == 0.0);
  CHECK(none.Format() == "0 (0/0)");
  const perfbench::RatioWithBase all{7, 7};
  CHECK(all.Format() == "1.0000 (7/7)");
}

void TestSelfTime() {
  using perfbench::Interval;
  using perfbench::SelfTime;
  // No children: the whole span.
  CHECK(SelfTime({0, 100}, {}) == 100);
  // Adjacent children [10,30) and [30,50): 40 covered, no double count.
  CHECK(SelfTime({0, 100}, {{10, 30}, {30, 50}}) == 60);
  // Nested children: [10,60) contains [20,30); only 50 covered.
  CHECK(SelfTime({0, 100}, {{20, 30}, {10, 60}}) == 50);
  // Overlapping children [10,40) and [30,70): union 60.
  CHECK(SelfTime({0, 100}, {{30, 70}, {10, 40}}) == 40);
  // Children sticking out of the parent are clipped.
  CHECK(SelfTime({50, 100}, {{0, 60}, {90, 200}}) == 30);
  // A child entirely outside the parent covers nothing.
  CHECK(SelfTime({0, 10}, {{20, 30}}) == 10);
}

}  // namespace

int main() {
  TestMedian();
  TestQuartilesMatchPython();
  TestPercentile();
  TestHighestSupportedPercentile();
  TestCappedMissCharging();
  TestRatioFormatting();
  TestSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("stats_test: all checks passed\n");
  return EXIT_SUCCESS;
}
