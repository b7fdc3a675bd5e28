#include "inference/calibration.h"

#include <algorithm>

#include "inference/rfinfer.h"
#include "model/generative.h"
#include "trace/trace.h"

namespace rfid {

double CalibrateChangeThreshold(const ReadRateModel& model,
                                const InterrogationSchedule& schedule,
                                const CalibrationConfig& config, Rng& rng) {
  double max_delta = 0.0;
  uint64_t next_serial = 1u << 20;  // calibration-only tag serials
  for (int sample = 0; sample < config.num_samples; ++sample) {
    Trace trace;
    std::vector<TagId> objects;
    // Containers are sampled in co-located pairs: a false candidate sharing
    // the true container's path is the worst case for false positives, and
    // the threshold must cover it (shelf mates in a warehouse are exactly
    // this configuration).
    std::vector<LocationId> shared_path;
    for (int c = 0; c < config.num_containers; ++c) {
      GenerativeScenario scenario;
      scenario.container = TagId::Case(next_serial++);
      for (int o = 0; o < config.objects_per_container; ++o) {
        TagId obj = TagId::Item(next_serial++);
        scenario.objects.push_back(obj);
        objects.push_back(obj);
      }
      if (c % 2 == 0 || shared_path.empty()) {
        shared_path = RandomLocationPath(model.num_locations(),
                                         config.horizon, config.move_prob,
                                         rng);
      }
      scenario.location_path = shared_path;
      // Respect the interrogation schedule: a reader that is not scanning
      // cannot produce a reading.
      const Epoch horizon =
          static_cast<Epoch>(scenario.location_path.size());
      for (Epoch t = 0; t < horizon; ++t) {
        const LocationId truth =
            scenario.location_path[static_cast<size_t>(t)];
        if (truth == kNoLocation) continue;
        for (LocationId r = 0; r < model.num_locations(); ++r) {
          if (!schedule.ActiveAt(r, t)) continue;
          const double p = model.Rate(r, truth);
          if (rng.NextBernoulli(p)) {
            trace.Add(RawReading{t, scenario.container, r});
          }
          for (TagId obj : scenario.objects) {
            if (rng.NextBernoulli(p)) {
              trace.Add(RawReading{t, obj, r});
            }
          }
        }
      }
    }
    trace.Seal();
    if (trace.empty()) continue;
    // The sampled containers are cases and the objects items: the
    // engine's default roles.
    RFInfer engine(&model, &schedule);
    if (!engine.Run(trace, 0, config.horizon - 1).ok()) continue;
    for (TagId obj : objects) {
      max_delta = std::max(max_delta, engine.ChangeStatistic(obj));
    }
  }
  return max_delta * config.margin;
}

}  // namespace rfid
