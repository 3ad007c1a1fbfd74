// Delegating wrappers the traced run puts around the public entry points
// of the layers it times. Each forwards every call unchanged to the wrapped
// object and folds the call's duration into an aggregate span, so the
// traced run explores exactly what the untraced run explores (the driver
// checks the deterministic counts match). The wrappers cost what they cost:
// the strategy wrapper also gives up Runtime::Step's devirtualized
// built-in path. Both show up as bench.trace_overhead, not in any layer.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/fingerprint.h"
#include "core/strategy.h"
#include "spans.h"

namespace perfbench {

/// Times every decision (Next, NextBool, NextInt, NextFault,
/// NextDeliveryFault) into one aggregate span and PrepareIteration into
/// another.
class TimedStrategy final : public systest::SchedulingStrategy {
 public:
  TimedStrategy(systest::SchedulingStrategy& inner, SpanRecorder& rec,
                std::uint32_t decide_span, std::uint32_t prepare_span)
      : inner_(inner), rec_(rec), decide_(decide_span), prepare_(prepare_span) {}

  void PrepareIteration(std::uint64_t iteration,
                        std::uint64_t max_steps) override {
    // The engine arms pre-sampled fault placement on the strategy it holds;
    // the wrapped strategy is the one that samples, so hand it over.
    inner_.SetFaultPlacementPoints(FaultPlacementPoints());
    const std::int64_t t0 = NowNs();
    inner_.PrepareIteration(iteration, max_steps);
    rec_.Add(prepare_, NowNs() - t0);
  }
  systest::MachineId Next(std::span<const systest::MachineId> enabled,
                          std::uint64_t step) override {
    const std::int64_t t0 = NowNs();
    const systest::MachineId id = inner_.Next(enabled, step);
    rec_.Add(decide_, NowNs() - t0);
    return id;
  }
  bool NextBool() override {
    const std::int64_t t0 = NowNs();
    const bool value = inner_.NextBool();
    rec_.Add(decide_, NowNs() - t0);
    return value;
  }
  std::uint64_t NextInt(std::uint64_t bound) override {
    const std::int64_t t0 = NowNs();
    const std::uint64_t value = inner_.NextInt(bound);
    rec_.Add(decide_, NowNs() - t0);
    return value;
  }
  systest::FaultDecision NextFault(const systest::FaultContext& ctx) override {
    const std::int64_t t0 = NowNs();
    const systest::FaultDecision d = inner_.NextFault(ctx);
    rec_.Add(decide_, NowNs() - t0);
    return d;
  }
  systest::DeliveryFault NextDeliveryFault(
      const systest::DeliveryFaultContext& ctx) override {
    const std::int64_t t0 = NowNs();
    const systest::DeliveryFault d = inner_.NextDeliveryFault(ctx);
    rec_.Add(decide_, NowNs() - t0);
    return d;
  }
  [[nodiscard]] std::string Name() const override { return inner_.Name(); }
  [[nodiscard]] std::uint64_t PruneHoldoffSteps() const noexcept override {
    return inner_.PruneHoldoffSteps();
  }

 private:
  systest::SchedulingStrategy& inner_;
  SpanRecorder& rec_;
  std::uint32_t decide_;
  std::uint32_t prepare_;
};

/// Times every Insert into an aggregate span and counts hits.
class TimedVisitedSet final : public systest::VisitedSet {
 public:
  TimedVisitedSet(systest::VisitedSet& inner, SpanRecorder& rec,
                  std::uint32_t insert_span)
      : inner_(inner), rec_(rec), insert_(insert_span) {}

  bool Insert(systest::Fingerprint fp) override {
    const std::int64_t t0 = NowNs();
    const bool novel = inner_.Insert(fp);
    rec_.Add(insert_, NowNs() - t0);
    if (!novel) ++hits_;
    return novel;
  }
  [[nodiscard]] std::size_t Size() const override { return inner_.Size(); }
  [[nodiscard]] systest::VisitedStats Stats() const override {
    return inner_.Stats();
  }
  [[nodiscard]] std::uint64_t Hits() const { return hits_; }

 private:
  systest::VisitedSet& inner_;
  SpanRecorder& rec_;
  std::uint32_t insert_;
  std::uint64_t hits_ = 0;
};

/// Cost of the timing itself, measured once per run so per-call layer
/// figures can be reported net of it. `inside_ns` is the part of one timed
/// call that lands inside the measured interval (one clock read);
/// `outside_ns` is the rest, which lands in the caller's self time.
struct TimerCost {
  double inside_ns = 0.0;
  double outside_ns = 0.0;
};

inline TimerCost CalibrateTimer() {
  constexpr int kCalls = 200'000;
  SpanRecorder rec("calibration");
  const std::uint32_t agg = rec.Aggregate(0, "calibration", "empty", 0);
  const std::int64_t start = NowNs();
  for (int i = 0; i < kCalls; ++i) {
    const std::int64_t t0 = NowNs();
    rec.Add(agg, NowNs() - t0);
  }
  const double per_call =
      static_cast<double>(NowNs() - start) / static_cast<double>(kCalls);
  const double inside =
      static_cast<double>(rec.Get(agg).busy) / static_cast<double>(kCalls);
  TimerCost cost;
  cost.inside_ns = inside;
  cost.outside_ns = per_call > inside ? per_call - inside : 0.0;
  return cost;
}

}  // namespace perfbench
