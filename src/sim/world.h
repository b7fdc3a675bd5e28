// Mutable state of the simulated physical world: which tags exist, where
// each one is, and what contains what. Every mutation is recorded into the
// GroundTruth store so inference output can be scored.
#ifndef RFID_SIM_WORLD_H_
#define RFID_SIM_WORLD_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "trace/ground_truth.h"

namespace rfid {

/// World state. Containment is a forest: item -> case -> pallet.
class World {
 public:
  World() = default;

  /// Creates fresh tags with globally unique serials.
  TagId NewPallet() { return Register(TagId::Pallet(next_pallet_++)); }
  TagId NewCase() { return Register(TagId::Case(next_case_++)); }
  TagId NewItem() { return Register(TagId::Item(next_item_++)); }

  /// Moves a single tag to `loc` at epoch `t` (contents do not follow).
  void Place(TagId tag, LocationId loc, Epoch t);

  /// Moves `tag` and everything transitively inside it to `loc`.
  void PlaceGroup(TagId tag, LocationId loc, Epoch t);

  /// Reparents `child` into `parent` (kNoTag to un-contain) at epoch `t`.
  /// The child's location is unchanged; call PlaceGroup/Place separately if
  /// it physically moves.
  void SetContainer(TagId child, TagId parent, Epoch t);

  /// Removes `tag` (and its contents) from the world at epoch `t`; its
  /// ground-truth intervals are closed.
  void RemoveGroup(TagId tag, Epoch t);

  /// Tags physically at `loc` (including contained tags).
  const std::vector<TagId>& TagsAt(LocationId loc) const;

  LocationId LocationOf(TagId tag) const;
  TagId ContainerOf(TagId tag) const;
  const std::vector<TagId>& ContentsOf(TagId tag) const;
  bool Exists(TagId tag) const { return state_.contains(tag); }

  GroundTruth& truth() { return truth_; }
  const GroundTruth& truth() const { return truth_; }

  /// Closes ground-truth intervals at the end of the simulation.
  void Finish(Epoch end) { truth_.Finish(end); }

 private:
  struct TagState {
    LocationId loc = kNoLocation;
    TagId container;
    std::vector<TagId> contents;
  };

  TagId Register(TagId tag) {
    state_.emplace(tag, TagState{});
    return tag;
  }

  void DetachFromLocation(TagId tag);
  void AttachToLocation(TagId tag, LocationId loc);
  void RecordTruth(TagId tag, Epoch t);

  std::unordered_map<TagId, TagState> state_;
  std::unordered_map<LocationId, std::vector<TagId>> at_location_;
  GroundTruth truth_;
  uint64_t next_pallet_ = 0;
  uint64_t next_case_ = 0;
  uint64_t next_item_ = 0;
};

}  // namespace rfid

#endif  // RFID_SIM_WORLD_H_
