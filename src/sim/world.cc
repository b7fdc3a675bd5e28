#include "sim/world.h"

#include <algorithm>

namespace rfid {

namespace {
const std::vector<TagId> kEmptyTags;
}  // namespace

void World::DetachFromLocation(TagId tag) {
  TagState& st = state_.at(tag);
  if (st.loc == kNoLocation) return;
  auto& vec = at_location_[st.loc];
  vec.erase(std::remove(vec.begin(), vec.end(), tag), vec.end());
}

void World::AttachToLocation(TagId tag, LocationId loc) {
  TagState& st = state_.at(tag);
  st.loc = loc;
  if (loc != kNoLocation) at_location_[loc].push_back(tag);
}

void World::RecordTruth(TagId tag, Epoch t) {
  const TagState& st = state_.at(tag);
  truth_.Set(tag, t, st.loc, st.container);
}

void World::Place(TagId tag, LocationId loc, Epoch t) {
  DetachFromLocation(tag);
  AttachToLocation(tag, loc);
  RecordTruth(tag, t);
}

void World::PlaceGroup(TagId tag, LocationId loc, Epoch t) {
  Place(tag, loc, t);
  // Contents move with their container, recursively.
  for (TagId child : state_.at(tag).contents) {
    PlaceGroup(child, loc, t);
  }
}

void World::SetContainer(TagId child, TagId parent, Epoch t) {
  TagState& cs = state_.at(child);
  if (cs.container.valid()) {
    auto& siblings = state_.at(cs.container).contents;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), child),
                   siblings.end());
  }
  cs.container = parent;
  if (parent.valid()) state_.at(parent).contents.push_back(child);
  RecordTruth(child, t);
}

void World::RemoveGroup(TagId tag, Epoch t) {
  // Remove children first (copy: recursion mutates contents).
  std::vector<TagId> children = state_.at(tag).contents;
  for (TagId child : children) RemoveGroup(child, t);
  SetContainer(tag, kNoTag, t);
  DetachFromLocation(tag);
  TagState& st = state_.at(tag);
  st.loc = kNoLocation;
  truth_.Set(tag, t, kNoLocation, kNoTag);
  state_.erase(tag);
}

const std::vector<TagId>& World::TagsAt(LocationId loc) const {
  auto it = at_location_.find(loc);
  return it == at_location_.end() ? kEmptyTags : it->second;
}

LocationId World::LocationOf(TagId tag) const {
  auto it = state_.find(tag);
  return it == state_.end() ? kNoLocation : it->second.loc;
}

TagId World::ContainerOf(TagId tag) const {
  auto it = state_.find(tag);
  return it == state_.end() ? kNoTag : it->second.container;
}

const std::vector<TagId>& World::ContentsOf(TagId tag) const {
  auto it = state_.find(tag);
  return it == state_.end() ? kEmptyTags : it->second.contents;
}

}  // namespace rfid
