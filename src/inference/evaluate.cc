#include "inference/evaluate.h"

#include <algorithm>

namespace rfid {

double ContainmentErrorPercent(const RFInfer& engine, const GroundTruth& truth,
                               const std::vector<TagId>& objects, Epoch at) {
  return ContainmentErrorPercentOf(
      [&](TagId o) { return engine.ContainerOf(o); }, truth, objects, at);
}

double LocationErrorPercent(const RFInfer& engine, const GroundTruth& truth,
                            const std::vector<TagId>& tags, Epoch begin,
                            Epoch end, Epoch stride) {
  return LocationErrorPercentOf(
      [&](TagId tag, Epoch t) { return engine.LocationOf(tag, t); }, truth,
      tags, begin, end, stride);
}

FMeasure ScoreChangeDetection(const std::vector<ChangePointResult>& reported,
                              const std::vector<TrueChange>& truth,
                              Epoch tolerance, bool require_container) {
  FMeasure fm;
  std::vector<bool> matched(truth.size(), false);
  for (const ChangePointResult& cp : reported) {
    bool hit = false;
    for (size_t i = 0; i < truth.size(); ++i) {
      if (matched[i]) continue;
      if (truth[i].object != cp.object) continue;
      if (std::abs(truth[i].time - cp.time) > tolerance) continue;
      if (require_container && truth[i].to.valid() &&
          truth[i].to != cp.new_container) {
        continue;
      }
      matched[i] = true;
      hit = true;
      break;
    }
    if (hit) {
      fm.AddTruePositive();
    } else {
      fm.AddFalsePositive();
    }
  }
  for (size_t i = 0; i < truth.size(); ++i) {
    if (!matched[i]) fm.AddFalseNegative();
  }
  return fm;
}

}  // namespace rfid
