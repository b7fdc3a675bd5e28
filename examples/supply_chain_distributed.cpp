// Distributed supply-chain tracking: three warehouses in a chain, pallets
// flowing between them, per-site inference with collapsed-state migration,
// and an ONS locating each object -- Figure 3 of the paper end to end.
//
// Demonstrates: the dist layer (sites, network byte accounting, ONS),
// migration of inference state when pallets cross sites, and the accuracy
// benefit over processing each site in isolation.
#include <cstdio>

#include "dist/distributed.h"
#include "sim/supply_chain.h"

int main() {
  using namespace rfid;

  SupplyChainConfig config;
  config.num_warehouses = 3;
  config.shelves_per_warehouse = 4;
  config.cases_per_pallet = 3;
  config.items_per_case = 8;
  config.shelf_stay = 300;
  config.transit_time = 60;
  config.horizon = 1800;
  config.read_rate.main = 0.6;
  config.seed = 33;
  SupplyChainSim sim(config);
  sim.Run();
  std::printf("simulated %zu cross-site transfers, %lld readings total\n",
              sim.transfers().size(),
              static_cast<long long>(sim.total_readings()));

  // Distributed processing with the paper's CR/collapsed migration. The
  // sites talk over the real socket transport here (framed messages
  // through loopback sockets); RFID_TRANSPORT / DistributedOptions can
  // flip any run between backends with bit-identical results.
  DistributedOptions migrate;
  migrate.site.migration = MigrationMode::kCollapsed;
  migrate.transport = TransportKind::kSocket;
  DistributedSystem with_migration(&sim, migrate);
  with_migration.Run();

  // The same workload with no state transfer ("None"). It keeps nothing
  // on disk: RFID_DURABILITY_DIR, when set, makes the run above durable,
  // and a replay needs an unused durability directory.
  DistributedOptions cold;
  cold.site.migration = MigrationMode::kNone;
  cold.durability.dir.clear();
  DistributedSystem without_migration(&sim, cold);
  without_migration.Run();

  std::printf(
      "containment error (averaged over inference boundaries):\n"
      "  with collapsed-state migration: %.2f%%\n"
      "  without migration (cold sites): %.2f%%\n",
      with_migration.AverageContainmentErrorPercent(),
      without_migration.AverageContainmentErrorPercent());
  std::printf(
      "migration traffic over the %s transport: %lld framed bytes in "
      "%lld messages (%lld bytes inference state, %lld still in flight)\n",
      ToString(with_migration.network().transport_kind()).c_str(),
      static_cast<long long>(with_migration.network().total_bytes()),
      static_cast<long long>(with_migration.network().total_messages()),
      static_cast<long long>(with_migration.network().BytesOfKind(
          MessageKind::kInferenceState)),
      static_cast<long long>(with_migration.network().in_flight_messages()));

  // Where is everything right now? Ask the ONS, then the owning site.
  int shown = 0;
  for (TagId item : sim.all_items()) {
    if (!sim.truth().PresentAt(item, config.horizon - 1)) continue;
    SiteId site = with_migration.ons().Lookup(item);
    if (site == kNoSite) continue;
    TagId believed = with_migration.BelievedContainer(item);
    std::printf("  %s -> site %d, container %s\n", item.ToString().c_str(),
                site, believed.ToString().c_str());
    if (++shown == 5) break;
  }
  std::printf("(%d items shown; ONS holds %zu registrations)\n", shown,
              with_migration.ons().size());
  return 0;
}
