// Ground-truth answer key for the Q1/Q2 exposure queries (Section 5.4):
// the same queries run over the simulator's true object events instead of
// inferred ones, and an F-measure that matches reported alerts against it.
// Computed outside every timed region.
#ifndef RFID_E2EBENCH_ORACLE_H_
#define RFID_E2EBENCH_ORACLE_H_

#include <cstdlib>
#include <vector>

#include "common/metrics.h"
#include "query/queries.h"
#include "sim/supply_chain.h"
#include "trace/product_catalog.h"

namespace rfid {
namespace e2e {

struct OracleAlerts {
  std::vector<ExposureAlert> q1;
  std::vector<ExposureAlert> q2;
};

/// Runs Q1/Q2 over ground-truth events sampled every 10 epochs.
inline OracleAlerts ComputeOracle(const SupplyChainSim& sim,
                                  const ProductCatalog& catalog,
                                  const std::vector<SensorReading>& sensors,
                                  const ExposureQueryConfig& q1_config,
                                  const ExposureQueryConfig& q2_config) {
  ExposureQuery q1(&catalog, q1_config);
  ExposureQuery q2(&catalog, q2_config);
  size_t si = 0;
  for (Epoch t = 0; t <= sim.config().horizon; t += 10) {
    while (si < sensors.size() && sensors[si].time <= t) {
      q1.OnSensor(sensors[si]);
      q2.OnSensor(sensors[si]);
      ++si;
    }
    for (TagId item : sim.all_items()) {
      if (!sim.truth().PresentAt(item, t)) continue;
      const LocationId loc = sim.truth().LocationAt(item, t);
      if (loc == kNoLocation) continue;
      const ObjectEvent e{t, item, loc, sim.truth().ContainerAt(item, t)};
      q1.OnEvent(e);
      q2.OnEvent(e);
    }
  }
  return OracleAlerts{q1.alerts(), q2.alerts()};
}

/// Greedy one-to-one match: a reported alert hits an unmatched oracle alert
/// for the same tag whose completion time is within `tolerance`.
inline void ScoreAlerts(const std::vector<ExposureAlert>& reported,
                        const std::vector<ExposureAlert>& oracle,
                        FMeasure* fm, Epoch tolerance = 300) {
  std::vector<bool> matched(oracle.size(), false);
  for (const ExposureAlert& a : reported) {
    bool hit = false;
    for (size_t i = 0; i < oracle.size(); ++i) {
      if (matched[i] || oracle[i].tag != a.tag) continue;
      if (std::abs(oracle[i].last_time - a.last_time) > tolerance) continue;
      matched[i] = true;
      hit = true;
      break;
    }
    if (hit) {
      fm->AddTruePositive();
    } else {
      fm->AddFalsePositive();
    }
  }
  for (bool m : matched) {
    if (!m) fm->AddFalseNegative();
  }
}

}  // namespace e2e
}  // namespace rfid

#endif  // RFID_E2EBENCH_ORACLE_H_
