// The long single-warehouse stream that streaming_test and fidelity_test
// share: the input shape of the end-to-end `site-stream` workload (one
// warehouse, 6 shelves, one pallet of 5 cases x 10 items every 300 epochs,
// a 600-epoch shelf stay, one item moved to another case every 120
// epochs), fed to one StreamingInference period by period with change
// detection on. Items arrive and leave all along it, so a site that keeps
// every object it has ever seen shows it here.
#ifndef RFID_TESTS_LONG_STREAM_H_
#define RFID_TESTS_LONG_STREAM_H_

#include <vector>

#include "inference/streaming.h"
#include "sim/supply_chain.h"

namespace rfid {

inline SupplyChainConfig LongStreamConfig(uint64_t seed, Epoch horizon) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 1;
  cfg.shelves_per_warehouse = 6;
  cfg.cases_per_pallet = 5;
  cfg.items_per_case = 10;
  cfg.pallet_injection_interval = 300;
  cfg.pallets_per_injection = 1;
  cfg.shelf_stay = 600;
  cfg.anomaly_interval = 120;
  cfg.read_rate.main = 0.8;
  cfg.read_rate.overlap = 0.5;
  cfg.horizon = horizon;
  cfg.seed = seed;
  return cfg;
}

/// Period 60, recent history 300, CR truncation, change detection on.
inline StreamingOptions LongStreamOptions() {
  StreamingOptions opts;
  opts.inference_period = 60;
  opts.truncation = TruncationMethod::kCriticalRegion;
  opts.recent_history = 300;
  opts.detect_changes = true;
  return opts;
}

/// Feeds the site's readings one period at a time, running inference at
/// every boundary b and then calling `at_boundary(b)`.
template <typename Fn>
void FeedByPeriod(const SupplyChainSim& sim, StreamingInference* si,
                  Epoch period, Fn&& at_boundary) {
  const std::vector<RawReading>& rs = sim.site_trace(0).readings();
  size_t cursor = 0;
  for (Epoch b = period; b <= sim.config().horizon; b += period) {
    const size_t begin = cursor;
    while (cursor < rs.size() && rs[cursor].time <= b) ++cursor;
    si->ObserveBatch(rs.data() + begin, cursor - begin);
    si->AdvanceTo(b);
    at_boundary(b);
  }
}

}  // namespace rfid

#endif  // RFID_TESTS_LONG_STREAM_H_
