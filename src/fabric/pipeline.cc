#include "fabric/pipeline.h"

namespace fabric {

void AggregatorBase::Account(const PipelineRecord& record) {
  aggregate_ += record.value * *scale_;
  ++seen_;
  if (seen_ == expected_records_) {
    Send<PipelineResult>(driver_, aggregate_);
    Halt();
  }
}

AggregatorMachine::AggregatorMachine(systest::MachineId driver,
                                     int expected_records)
    : AggregatorBase(driver, expected_records) {
  State("Unconfigured")
      .Defer<PipelineRecord>()
      .On<PipelineConfig>(&AggregatorMachine::OnConfig);
  State("Configured").On<PipelineRecord>(&AggregatorMachine::Account);
  SetStart("Unconfigured");
}

void AggregatorMachine::OnConfig(const PipelineConfig& config) {
  StoreConfig(config);
  Goto("Configured");
}

UnguardedAggregatorMachine::UnguardedAggregatorMachine(
    systest::MachineId driver, int expected_records)
    : AggregatorBase(driver, expected_records) {
  // BUG (CScale NullReferenceException analogue): a single state whose
  // record handler dereferences the configuration unconditionally.
  State("Running")
      .On<PipelineConfig>(&UnguardedAggregatorMachine::StoreConfig)
      .On<PipelineRecord>(&UnguardedAggregatorMachine::OnRecord);
  SetStart("Running");
}

void UnguardedAggregatorMachine::OnRecord(const PipelineRecord& record) {
  // The unguarded dereference: with no configuration present this is the
  // modeled null-reference crash.
  Assert(scale_.has_value(),
         "null dereference: aggregator consumed a record before its routing "
         "configuration arrived");
  Account(record);
}

PipelineSourceMachine::PipelineSourceMachine(systest::MachineId aggregator,
                                             int records,
                                             std::uint64_t value_space)
    : aggregator_(aggregator), records_(records), value_space_(value_space) {
  State("Emitting").OnEntry(&PipelineSourceMachine::OnStart);
  SetStart("Emitting");
}

void PipelineSourceMachine::OnStart() {
  for (int i = 0; i < records_; ++i) {
    // Derived record values are chosen through controlled nondeterminism.
    Send<PipelineRecord>(aggregator_,
                         static_cast<std::int64_t>(NondetInt(value_space_)) + 1);
  }
  Halt();
}

}  // namespace fabric
