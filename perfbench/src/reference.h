// Host-speed reference: a fixed CPU kernel, independent of SysTest, timed
// next to every measured interval. On a host whose physical cores are
// shared with other tenants, the program runs up to ~1.6x slower for
// minutes at a time while an SMT sibling is busy, whatever the seed; the
// kernel slows with it. Scaling a measured time by kReferenceSeconds over
// the kernel's time measured beside it reports the time at a fixed host
// speed, so runs made minutes apart stay comparable. A change to SysTest
// leaves the kernel's time alone and moves the scaled figures in full.
#pragma once

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "spans.h"

namespace perfbench {

/// About the kernel's wall time on one core of the 4-core x86-64
/// host the benchmark was tuned on; scaled times are "seconds at the
/// speed where the kernel takes this long".
constexpr double kReferenceSeconds = 1.2e-3;

inline volatile std::uint64_t g_reference_sink = 0;

/// One run of the kernel; returns its wall seconds. It churns a std::map of
/// up to 16K nodes with random inserts and erases: allocation, pointer
/// chasing and unpredictable branches, like the program's own step loop.
/// (Of the kernels tried, this one tracked the program's slow phases best;
/// high-ILP integer streams and cache-sized pointer chases swing more than
/// the program does.)
inline double ReferenceKernelSeconds() {
  const std::int64_t t0 = NowNs();
  std::map<std::uint64_t, std::uint64_t> tree;
  std::uint64_t x = 777;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    tree[x >> 50] += x;
    if (((x >> 20) & 1) != 0) tree.erase((x >> 37) & 16383);
  }
  g_reference_sink = g_reference_sink + tree.size();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

/// How many kernel runs to time before an interval expected to last
/// `interval_s`: about 2% of it, at least one and at most 64, so that a
/// long interval gets a steady reading without much overhead.
inline int ReferenceRuns(double interval_s) {
  const double runs = 0.02 * interval_s / kReferenceSeconds;
  return runs < 1.0 ? 1 : (runs > 64.0 ? 64 : static_cast<int>(runs));
}

/// Mean time of one kernel run over `runs` runs on each of `threads`
/// threads at once, for intervals in which the program itself runs that
/// many threads.
inline double ReferenceSeconds(int threads, int runs) {
  auto timed = [runs] {
    double total = 0.0;
    for (int r = 0; r < runs; ++r) total += ReferenceKernelSeconds();
    return total / static_cast<double>(runs);
  };
  if (threads <= 1) return timed();
  std::vector<double> seconds(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < seconds.size(); ++t) {
    pool.emplace_back([&seconds, &timed, t] { seconds[t] = timed(); });
  }
  for (std::thread& th : pool) th.join();
  double total = 0.0;
  for (const double s : seconds) total += s;
  return total / static_cast<double>(threads);
}

}  // namespace perfbench
