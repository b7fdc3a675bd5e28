// The RFID-enabled supply-chain workload generator (Appendix C.1).
//
// Reproduces the paper's CSIM emulation: N warehouses arranged in a
// single-source DAG; pallets of cases of items injected at the source; per
// warehouse the flow entry door -> unpack -> conveyor belt (cases scanned
// one at a time) -> shelves (periodic scans, overlapping readers) -> repack
// -> exit door -> transit to a successor warehouse chosen round-robin.
// Anomalies move a random item to a different case at a configurable
// frequency (Table 2's FA parameter).
#ifndef RFID_SIM_SUPPLY_CHAIN_H_
#define RFID_SIM_SUPPLY_CHAIN_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/des.h"
#include "sim/layout.h"
#include "sim/reader_sim.h"
#include "sim/world.h"
#include "trace/trace.h"

namespace rfid {

/// All Table 2 parameters plus flow timings.
struct SupplyChainConfig {
  // Topology.
  int num_warehouses = 1;
  int shelves_per_warehouse = 8;
  /// DAG layer sizes; empty means a linear chain. Sum must equal
  /// num_warehouses and the first layer must be 1 (single source).
  std::vector<int> dag_layers;

  // Packaging (Table 2: fixed).
  int cases_per_pallet = 5;
  int items_per_case = 20;

  // Flow timings.
  Epoch pallet_injection_interval = 60;  ///< 1 pallet every 60 s (Table 2)
  int pallets_per_injection = 1;
  Epoch entry_dwell = 10;
  Epoch belt_time_per_case = 5;
  Epoch shelf_stay = 600;
  Epoch exit_dwell = 10;
  Epoch transit_time = 60;
  /// Stop creating new pallets after this many (-1 = unlimited).
  int max_pallets = -1;

  // Readers.
  ReadRateParams read_rate;
  ScheduleParams schedule;

  // Anomalies: every `anomaly_interval` epochs per warehouse, one random
  // item is moved into a different case (0 disables).
  Epoch anomaly_interval = 0;

  // Run control.
  Epoch horizon = 1500;
  uint64_t seed = 1;
};

/// A pallet group crossing from one warehouse to another; the trigger for
/// inference/query state migration in the distributed system.
struct ObjectTransfer {
  Epoch depart = 0;
  Epoch arrive = 0;
  SiteId from = kNoSite;
  SiteId to = kNoSite;  ///< kNoSite when leaving the supply chain
  TagId pallet;
  std::vector<TagId> cases;
  std::vector<TagId> items;
};

/// A ground-truth anomaly (item moved between cases), for scoring
/// change-point detection.
struct AnomalyRecord {
  Epoch time = 0;
  TagId item;
  TagId from_case;
  TagId to_case;
};

/// Runs the workload and materializes per-site traces, ground truth,
/// transfers, and anomalies.
class SupplyChainSim {
 public:
  explicit SupplyChainSim(SupplyChainConfig config);

  /// Runs the full simulation. If `sink` is null, readings are materialized
  /// into per-site traces (see site_trace). Calling Run twice is an error.
  void Run(ReadingSink* sink = nullptr);

  const SupplyChainConfig& config() const { return config_; }
  const Layout& layout() const { return layout_; }
  const ReadRateModel& model() const { return model_; }
  const InterrogationSchedule& schedule() const { return schedule_; }
  const World& world() const { return world_; }
  const GroundTruth& truth() const { return world_.truth(); }
  const std::vector<ObjectTransfer>& transfers() const { return transfers_; }
  const std::vector<AnomalyRecord>& anomalies() const { return anomalies_; }

  /// Materialized trace of one site (sealed). Only valid when Run was called
  /// without an external sink.
  const Trace& site_trace(SiteId s) const {
    return site_traces_[static_cast<size_t>(s)];
  }

  /// All case / item tags ever created, the containment-inference partition.
  const std::vector<TagId>& all_cases() const { return all_cases_; }
  const std::vector<TagId>& all_items() const { return all_items_; }
  const std::vector<TagId>& all_pallets() const { return all_pallets_; }

  int64_t total_readings() const { return total_readings_; }

 private:
  struct PalletPlan {
    TagId pallet;
    std::vector<TagId> cases;
    SiteId site = 0;
    int cases_done = 0;
    Epoch repack_ready = 0;
  };

  void ScheduleInjection(Epoch t);
  void ArriveAtWarehouse(std::shared_ptr<PalletPlan> plan, SiteId site);
  void Unpack(std::shared_ptr<PalletPlan> plan);
  void CaseDoneOnShelf(std::shared_ptr<PalletPlan> plan, TagId case_tag);
  void Repack(std::shared_ptr<PalletPlan> plan);
  void Dispatch(std::shared_ptr<PalletPlan> plan);
  void ScheduleAnomaly(SiteId site, Epoch t);
  void InjectAnomaly(SiteId site);

  SupplyChainConfig config_;
  Layout layout_;
  ReadRateModel model_;
  InterrogationSchedule schedule_;
  World world_;
  EventQueue queue_;
  Rng rng_;
  std::unique_ptr<ReaderSim> reader_sim_;

  std::vector<std::vector<SiteId>> successors_;
  std::vector<size_t> dispatch_rr_;  ///< round-robin cursor per site

  std::vector<Trace> site_traces_;
  std::vector<ObjectTransfer> transfers_;
  std::vector<AnomalyRecord> anomalies_;
  std::vector<TagId> all_cases_;
  std::vector<TagId> all_items_;
  std::vector<TagId> all_pallets_;
  int pallets_created_ = 0;
  int64_t total_readings_ = 0;
  bool ran_ = false;
};

}  // namespace rfid

#endif  // RFID_SIM_SUPPLY_CHAIN_H_
