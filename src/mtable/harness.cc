#include "mtable/harness.h"

#include "mtable/migrator.h"
#include "mtable/monitors.h"
#include "mtable/tables_machine.h"

namespace mtable {

namespace {

/// Launches the services and the migrator job, waits for every service and
/// the migrator to finish, then asks the Tables machine to run the final
/// verification. Owning the launches lets the driver model the job
/// scheduler of the real system: when the fault plane kills a crashable
/// migrator mid-move, the driver launches a FRESH migrator job, which must
/// converge from whatever intermediate partition state the dead one left
/// behind (the protocol's idempotence is exactly what this scenario tests).
class CompletionDriver final : public systest::Machine {
 public:
  /// Execution recycling: the services and the migrator are created
  /// mid-execution (in OnStart), so the reset truncates them away — only this
  /// driver's own bookkeeping needs restoring.
  static constexpr bool kReusableRuntime = true;

  CompletionDriver(systest::MachineId tables, MigrationHarnessOptions options)
      : tables_(tables), options_(std::move(options)),
        services_left_(options_.num_services) {
    State("Waiting")
        .OnEntry(&CompletionDriver::OnStart)
        .On<ServiceDone>(&CompletionDriver::OnServiceDone)
        .On<MigratorCrashed>(&CompletionDriver::OnMigratorCrashed)
        .On<MigrationDone>(&CompletionDriver::OnMigrationDone);
    SetStart("Waiting");
  }

 private:
  void OnReset() override {
    services_.clear();
    services_left_ = options_.num_services;
    migration_done_ = false;
  }

  void OnStart() {
    for (int i = 0; i < options_.num_services; ++i) {
      ServiceOptions service_options;
      service_options.index = i;
      service_options.num_ops = options_.ops_per_service;
      service_options.value_space = options_.value_space;
      service_options.partitions = options_.partitions;
      service_options.row_keys = options_.row_keys;
      service_options.bugs = options_.bugs;
      if (static_cast<std::size_t>(i) < options_.scripts.size()) {
        service_options.script =
            options_.scripts[static_cast<std::size_t>(i)];
      }
      services_.push_back(Create<ServiceMachine>("Service" + std::to_string(i),
                                                 tables_, Id(),
                                                 std::move(service_options)));
    }
    LaunchMigrator();
  }

  void LaunchMigrator() {
    const systest::MachineId migrator = Create<MigratorMachine>(
        "Migrator", tables_, Id(), services_, options_.partitions,
        options_.bugs);
    if (options_.crashable_migrator) {
      Rt().SetCrashable(migrator);
    }
  }

  void OnMigratorCrashed(const MigratorCrashed&) {
    // A crashed job is gone for good (the Tables machine drops responses to
    // it; services drop barrier acks to it); the replacement starts from the
    // persisted partition states.
    if (!migration_done_) {
      LaunchMigrator();
    }
  }

  void OnServiceDone(const ServiceDone&) {
    --services_left_;
    MaybeVerify();
  }
  void OnMigrationDone(const MigrationDone&) {
    migration_done_ = true;
    MaybeVerify();
  }
  void MaybeVerify() {
    if (services_left_ == 0 && migration_done_) {
      Send<VerifyTables>(tables_);
      Halt();
    }
  }

  systest::MachineId tables_;
  MigrationHarnessOptions options_;
  std::vector<systest::MachineId> services_;
  int services_left_;
  bool migration_done_ = false;
};

}  // namespace

systest::Harness MakeMigrationHarness(const MigrationHarnessOptions& options) {
  return [options](systest::Runtime& rt) {
    rt.RegisterMonitor<MigrationLivenessMonitor>("MigrationLivenessMonitor");

    std::vector<chaintable::TableRow> initial = options.initial_rows;
    if (initial.empty()) {
      for (const std::string& partition : options.partitions) {
        for (std::size_t i = 0; i < options.row_keys.size() && i < 2; ++i) {
          chaintable::TableRow row;
          row.key = {partition, options.row_keys[i]};
          std::string value = "v";
          value += std::to_string(i);
          row.properties = {{"val", std::move(value)}};
          initial.push_back(std::move(row));
        }
      }
    }

    const systest::MachineId tables =
        rt.CreateMachine<TablesMachine>("Tables", std::move(initial));
    rt.CreateMachine<CompletionDriver>("CompletionDriver", tables, options);
  };
}

systest::TestConfig DefaultConfig(systest::StrategyName strategy) {
  systest::TestConfig config;
  config.iterations = 100'000;  // the paper's execution budget
  config.max_steps = 20'000;    // executions quiesce far earlier
  config.strategy = strategy;
  config.strategy_budget = 2;
  config.seed = 2016;
  return config;
}

}  // namespace mtable
