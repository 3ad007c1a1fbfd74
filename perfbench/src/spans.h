// In-memory span recorder for the traced run. Coarse boundaries (a
// workload job, a config resolution, a corpus save, a witness replay) are
// interval spans; per-call boundaries that fire millions of times (a
// strategy decision, a visited-set insert, one execution) are aggregate
// spans: one record per (job, layer) carrying a call count and the summed
// busy time. Nothing is written until the run ends (WriteJsonLines).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::string layer;         ///< the module the time is charged to
  std::string name;          ///< what ran (job label, call name)
  std::uint32_t trial = 0;   ///< job index within the workload pass
  std::int64_t start = 0;    ///< ns, steady clock
  std::int64_t end = 0;
  bool aggregate = false;    ///< per-call boundary summed into one record
  std::uint64_t count = 1;   ///< calls folded into this record
  std::int64_t busy = 0;     ///< summed duration (== end - start if !aggregate)
};

/// Per-layer totals of one workload: calls and self time.
struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload) : workload_(std::move(workload)) {
    spans_.push_back(Span{});  // id 0: the implicit root
  }

  /// Opens an interval span under `parent`; returns its id.
  std::uint32_t Open(std::uint32_t parent, std::string layer, std::string name,
                     std::uint32_t trial) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size());
    s.parent = parent;
    s.layer = std::move(layer);
    s.name = std::move(name);
    s.trial = trial;
    s.start = NowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Ends an interval span, or stamps the last-use time of an aggregate.
  void Close(std::uint32_t id) {
    Span& s = spans_[id];
    s.end = NowNs();
    if (!s.aggregate) s.busy = s.end - s.start;
  }

  /// Creates an aggregate span under `parent`; callers fold calls into it
  /// with Add() and Close() it when the job ends.
  std::uint32_t Aggregate(std::uint32_t parent, std::string layer,
                          std::string name, std::uint32_t trial) {
    const std::uint32_t id = Open(parent, std::move(layer), std::move(name),
                                  trial);
    Span& s = spans_[id];
    s.aggregate = true;
    s.count = 0;
    s.end = s.start;
    return id;
  }

  /// Folds one call of `ns` nanoseconds into aggregate span `id`.
  void Add(std::uint32_t id, std::int64_t ns) {
    Span& s = spans_[id];
    ++s.count;
    s.busy += ns;
  }

  [[nodiscard]] const Span& Get(std::uint32_t id) const { return spans_[id]; }

  /// Self time of every span: busy time minus the interval union of its
  /// interval children minus the summed busy time of its aggregate children.
  [[nodiscard]] std::vector<std::int64_t> SelfTimes() const {
    std::vector<std::vector<Interval>> intervals(spans_.size());
    std::vector<std::int64_t> aggregate_busy(spans_.size(), 0);
    for (std::size_t i = 1; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.aggregate) {
        aggregate_busy[s.parent] += s.busy;
      } else {
        intervals[s.parent].push_back({s.start, s.end});
      }
    }
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = 1; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t own =
          s.aggregate ? s.busy : SelfTime({s.start, s.end}, intervals[i]);
      self[i] = own - aggregate_busy[i];
    }
    return self;
  }

  /// Sums calls and self time per layer.
  [[nodiscard]] std::map<std::string, LayerTotals> ByLayer() const {
    const std::vector<std::int64_t> self = SelfTimes();
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 1; i < spans_.size(); ++i) {
      LayerTotals& t = out[spans_[i].layer];
      t.calls += spans_[i].count;
      t.self_ns += self[i];
    }
    return out;
  }

  /// Writes every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 1; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"workload\":\"%s\",\"trial\":%u,"
                   "\"layer\":\"%s\",\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"aggregate\":%s,\"count\":%llu,"
                   "\"busy_ns\":%lld}\n",
                   s.id, s.parent, workload_.c_str(), s.trial, s.layer.c_str(),
                   s.name.c_str(), static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   s.aggregate ? "true" : "false",
                   static_cast<unsigned long long>(s.count),
                   static_cast<long long>(s.busy));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::string workload_;
  std::vector<Span> spans_;
};

/// RAII interval span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::uint32_t parent, std::string layer,
             std::string name, std::uint32_t trial)
      : rec_(rec), id_(rec.Open(parent, std::move(layer), std::move(name),
                                trial)) {}
  ~ScopedSpan() { rec_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t Id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint32_t id_;
};

}  // namespace perfbench
