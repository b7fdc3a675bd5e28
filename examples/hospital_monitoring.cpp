// Hospital cold-chain monitoring: the paper's motivating hybrid-query
// scenario. Temperature-sensitive drug products are tracked through a
// hospital storage wing; a continuous query (Q1 from the paper, with a
// scaled time bound) raises an alert whenever a drug product sits outside a
// freezer case at room temperature for too long.
//
// Demonstrates: streaming inference (periodic RFINFER runs), the inferred
// event stream feeding the CQL-subset query processor, hybrid join with a
// temperature sensor stream, and pattern matching per object.
#include <cstdio>

#include "inference/streaming.h"
#include "query/queries.h"
#include "sim/sensors.h"
#include "sim/supply_chain.h"

int main() {
  using namespace rfid;

  // The "hospital wing": one site, 4 storage areas (shelves), readers at
  // the receiving dock (entry), sorting table (belt), and dispatch (exit).
  SupplyChainConfig config;
  config.num_warehouses = 1;
  config.shelves_per_warehouse = 4;
  config.cases_per_pallet = 4;
  config.items_per_case = 6;
  config.max_pallets = 5;
  config.shelf_stay = 900;
  config.horizon = 1200;
  config.read_rate.main = 0.8;
  config.seed = 11;
  SupplyChainSim sim(config);
  sim.Run();

  // Manufacturer catalog: every item is a frozen drug product; half the
  // cases are freezer containers, the rest plain totes.
  ProductCatalog catalog;
  for (TagId item : sim.all_items()) {
    catalog.RegisterProduct(item, ProductInfo{"drug", /*frozen=*/true,
                                              /*flammable=*/false,
                                              /*has_peanuts=*/false});
  }
  for (size_t i = 0; i < sim.all_cases().size(); ++i) {
    catalog.RegisterContainer(
        sim.all_cases()[i],
        ContainerInfo{i % 2 == 0 ? ContainerClass::kFreezer
                                 : ContainerClass::kPlain});
  }

  // Room-temperature sensors at every reader location.
  SensorConfig sensor_cfg;
  Rng sensor_rng(5);
  auto sensors = GenerateSensorStream(
      sensor_cfg, sim.layout().num_locations(), config.horizon, sensor_rng);

  // Q1, scaled: alert after 300 s of exposure instead of 6 hours.
  ExposureQueryConfig q1 = ExposureQuery::Q1Config(/*duration=*/300);
  q1.max_gap = 400;  // shelf scans are sparse; don't lapse between them
  ExposureQuery query(&catalog, q1);

  // Streaming pipeline: buffer raw readings, run inference every 300 s,
  // forward the inferred events (in time order with the sensor stream).
  StreamingOptions stream_opts;
  stream_opts.inference_period = 300;
  StreamingInference inference(&sim.model(), &sim.schedule(), stream_opts);

  size_t reading_cursor = 0;
  size_t sensor_cursor = 0;
  Epoch emitted_to = -1;
  const auto& readings = sim.site_trace(0).readings();
  for (Epoch t = 0; t <= config.horizon; ++t) {
    while (reading_cursor < readings.size() &&
           readings[reading_cursor].time == t) {
      inference.Observe(readings[reading_cursor++]);
    }
    if (inference.AdvanceTo(t) > 0) {
      // New inference results: push events and sensors in time order.
      for (const ObjectEvent& e : inference.engine().EmitEvents(emitted_to)) {
        while (sensor_cursor < sensors.size() &&
               sensors[sensor_cursor].time <= e.time) {
          query.OnSensor(sensors[sensor_cursor++]);
        }
        query.OnEvent(e);
      }
      emitted_to = t;
    }
  }

  std::printf("cold-chain alerts raised: %zu\n", query.alerts().size());
  for (const ExposureAlert& alert : query.alerts()) {
    TagId believed_case = inference.ContainerOf(alert.tag);
    std::printf(
        "  ALERT %s exposed from t=%lld to t=%lld (%lld readings), "
        "believed container %s\n",
        alert.tag.ToString().c_str(),
        static_cast<long long>(alert.first_time),
        static_cast<long long>(alert.last_time),
        static_cast<long long>(alert.n_events),
        believed_case.ToString().c_str());
    if (query.alerts().size() > 8 &&
        &alert - query.alerts().data() >= 7) {
      std::printf("  ... (%zu more)\n", query.alerts().size() - 8);
      break;
    }
  }

  // Sanity: alerts should name products whose true case is NOT a freezer.
  int consistent = 0;
  for (const ExposureAlert& alert : query.alerts()) {
    TagId true_case = sim.truth().ContainerAt(alert.tag, alert.last_time);
    if (!catalog.IsA(true_case, ContainerClass::kFreezer)) ++consistent;
  }
  std::printf("%d of %zu alerts match ground truth exposure\n", consistent,
              query.alerts().size());
  return 0;
}
