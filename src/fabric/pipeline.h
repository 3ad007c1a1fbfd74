// SysTest — Azure Service Fabric case study (§5): CScale-like pipeline.
//
// "CScale chains multiple Fabric services, which communicate via remote
// procedure calls. To close the system, we modeled RPCs using
// PSharp.Send(...)". This module models one such chain: an upstream stage
// emits derived records to a downstream aggregator whose routing
// configuration arrives concurrently with the first records. The bug found
// in CScale was a NullReferenceException; its model analogue here is the
// aggregator dereferencing the not-yet-arrived configuration
// (FabricBugs::unguarded_pipeline_config).
#pragma once

#include <optional>

#include "core/runtime.h"
#include "fabric/events.h"

namespace fabric {

/// Downstream aggregation stage: the members and actions the correct and
/// the buggy aggregator share. Each of the two types below declares one
/// fixed state graph.
class AggregatorBase : public systest::Machine {
 protected:
  AggregatorBase(systest::MachineId driver, int expected_records)
      : driver_(driver), expected_records_(expected_records) {}

  void StoreConfig(const PipelineConfig& config) { scale_ = config.scale; }
  void Account(const PipelineRecord& record);

  std::optional<std::int64_t> scale_;

 private:
  systest::MachineId driver_;
  int expected_records_;
  std::int64_t aggregate_ = 0;
  int seen_ = 0;
};

/// Correct behavior: records that arrive before the configuration are
/// deferred until it has arrived.
class AggregatorMachine final : public AggregatorBase {
 public:
  AggregatorMachine(systest::MachineId driver, int expected_records);

 private:
  void OnConfig(const PipelineConfig& config);
};

/// Buggy behavior (FabricBugs::unguarded_pipeline_config): the
/// configuration is dereferenced unconditionally.
class UnguardedAggregatorMachine final : public AggregatorBase {
 public:
  UnguardedAggregatorMachine(systest::MachineId driver, int expected_records);

 private:
  void OnRecord(const PipelineRecord& record);
};

/// Upstream stage: transforms client-visible values into derived records and
/// ships them over the modeled RPC channel.
class PipelineSourceMachine final : public systest::Machine {
 public:
  PipelineSourceMachine(systest::MachineId aggregator, int records,
                        std::uint64_t value_space);

 private:
  void OnStart();

  systest::MachineId aggregator_;
  int records_;
  std::uint64_t value_space_;
};

}  // namespace fabric
