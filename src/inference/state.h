// Serializable inference state for cross-site migration (Section 4.1).
//
// Two payload shapes, matching the paper's two techniques:
//  * full     -- the readings of the object and its candidate containers
//                inside the critical region and recent history ("one
//                solution is simply shipping the inference state");
//  * collapsed -- one number per (container, object) pair, the co-location
//                weight w_co ("we employ a technique to collapse the
//                inference state to a single number for each
//                container-object pair").
//
// A transfer ships one MigrationBatch per containment level: every
// departing object's collapsed state, then one reading list for the whole
// level. Objects that leave together share their candidate containers, so
// the list carries each distinct reading once, not once per object that
// names its tag.
//
// The distributed experiments charge exactly these encoded bytes to the
// network, so the encoding is the compact varint wire format of serde.h.
#ifndef RFID_INFERENCE_STATE_H_
#define RFID_INFERENCE_STATE_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "inference/rfinfer.h"
#include "trace/reading.h"

namespace rfid {

/// Migration payload for one object: its collapsed weights and context.
struct ObjectMigrationState {
  TagId object;
  /// Collapsed weights (always present; tiny).
  std::vector<std::pair<TagId, double>> weights;
  /// Critical region and change barrier carried to the next site.
  std::optional<EpochInterval> critical_region;
  Epoch barrier = -1;
  /// The container believed current at departure.
  TagId container;
};

/// One containment level's share of a transfer: the departing objects'
/// states, plus -- under full-readings migration -- the retained readings
/// of those objects and their candidate containers
/// (StreamingInference::ExportReadings), each distinct reading once, in
/// RawReadingOrder. Empty under collapsed migration.
struct MigrationBatch {
  std::vector<ObjectMigrationState> states;
  std::vector<RawReading> readings;
};

/// Encodes/decodes one level's batch. The decoder accepts exactly what the
/// encoder writes: a malformed batch (wrong magic, truncation, trailing
/// bytes, a NaN weight, readings out of RawReadingOrder or repeated, a
/// negative epoch) is Status::Corruption, so any batch that decodes
/// re-encodes to the same bytes.
std::vector<uint8_t> EncodeMigrationBatch(const MigrationBatch& batch);
Result<MigrationBatch> DecodeMigrationBatch(const uint8_t* data, size_t size);

}  // namespace rfid

#endif  // RFID_INFERENCE_STATE_H_
