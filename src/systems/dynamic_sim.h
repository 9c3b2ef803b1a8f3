// Dynamic fog simulation: hours of player churn plus supernode
// departures/arrivals, driven through the core::SessionManager.
//
// This exercises the lifecycle story the paper tells but never measures:
// players join (Section III-A3 assignment, backups recorded) and leave;
// supernodes notify-and-leave, triggering backup failover; and, with the
// cooperation extension on, overloaded supernodes shed players to
// neighbours. The result quantifies how well the fog sustains sessions
// under infrastructure churn.
#pragma once

#include <cstdint>

#include "core/session_manager.h"
#include "exec/run_executor.h"
#include "systems/scenario.h"

namespace cloudfog::systems {

struct DynamicSimOptions {
  TimeMs duration_ms = 4.0 * kMsPerHour;
  /// Mean time between a supernode's departures (exponential).
  double supernode_mtbf_hours = 8.0;
  /// How long a departed supernode stays away before rejoining.
  TimeMs supernode_downtime_ms = 30.0 * kMsPerMinute;
  bool enable_failover = true;
  bool enable_cooperation = false;
  /// Utilization above which a cooperating supernode sheds load. Note the
  /// structural ceiling: with per-slot provisioning of k kbps, utilization
  /// cannot exceed max_bitrate / k (0.3 at the default 6,000 kbps/slot).
  double shed_utilization = 0.25;
  TimeMs rebalance_period_ms = 1.0 * kMsPerMinute;
  /// Session/latency sampling cadence for the time-averaged metrics.
  TimeMs sample_period_ms = 5.0 * kMsPerMinute;
  std::uint64_t seed_salt = 0;
};

struct DynamicSimResult {
  std::uint64_t player_joins = 0;
  std::uint64_t supernode_departures = 0;
  /// Players whose serving supernode left underneath them.
  std::uint64_t disruptions = 0;
  std::uint64_t recovered_to_backup = 0;
  std::uint64_t reassigned = 0;
  std::uint64_t fell_to_cloud = 0;
  std::uint64_t rebalance_moves = 0;
  /// Time-averaged fraction of sessions served by supernodes.
  double mean_supernode_session_fraction = 0.0;
  /// Time-averaged mean stream delay of supernode sessions (ms).
  double mean_stream_delay_ms = 0.0;
  /// Time-averaged fraction of supernodes above 90% uplink utilization.
  double mean_hot_supernode_fraction = 0.0;

  /// Of disrupted players, the fraction kept on the fog (not the cloud).
  double recovery_rate() const {
    return disruptions == 0
               ? 1.0
               : static_cast<double>(recovered_to_backup + reassigned) /
                     static_cast<double>(disruptions);
  }
};

/// Runs the dynamic simulation over `scenario`'s population and supernodes.
DynamicSimResult run_dynamic_sim(const Scenario& scenario,
                                 const DynamicSimOptions& options);

/// One self-contained dynamic run for the parallel batch entry point: the
/// scenario is specified by parameters, not by reference, so every run
/// builds (and exclusively owns) its own Scenario.
struct DynamicRunSpec {
  ScenarioParams scenario;
  DynamicSimOptions options;
};

/// Fans independent dynamic simulations across `executor`; results are
/// ordered by submission index, so aggregation is bit-identical at any
/// --jobs value.
std::vector<DynamicSimResult> run_dynamic_sims(
    const std::vector<DynamicRunSpec>& runs, exec::RunExecutor& executor);

}  // namespace cloudfog::systems
