// Static per-tag product attributes, standing in for the "manufacturer's
// database" the paper consults for optional event attributes (type of food,
// type of container). Queries like Q1 test `container IsA 'freezer'` and
// product properties like "frozen" against this catalog.
#ifndef RFID_TRACE_PRODUCT_CATALOG_H_
#define RFID_TRACE_PRODUCT_CATALOG_H_

#include <string>
#include <unordered_map>

#include "common/types.h"

namespace rfid {

/// Container classes relevant to the paper's example queries.
enum class ContainerClass : uint8_t {
  kPlain = 0,
  kFreezer = 1,
  kFireproof = 2,
};

std::string ToString(ContainerClass c);

/// Attributes of one product (item-level tag).
struct ProductInfo {
  std::string type;          ///< e.g. "frozen_food", "drug", "scalpel"
  bool frozen = false;       ///< requires cold chain (Q1/Q2)
  bool flammable = false;    ///< requires fireproof case
  bool has_peanuts = false;  ///< allergen example from Section 1
};

/// Attributes of one container (case/pallet-level tag).
struct ContainerInfo {
  ContainerClass klass = ContainerClass::kPlain;
};

/// In-memory manufacturer catalog: tag id -> attributes.
class ProductCatalog {
 public:
  void RegisterProduct(TagId tag, ProductInfo info) {
    products_[tag] = std::move(info);
  }
  void RegisterContainer(TagId tag, ContainerInfo info) {
    containers_[tag] = info;
  }

  /// Looks up a product; returns nullptr when unknown.
  const ProductInfo* FindProduct(TagId tag) const {
    auto it = products_.find(tag);
    return it == products_.end() ? nullptr : &it->second;
  }

  /// Looks up a container; returns nullptr when unknown.
  const ContainerInfo* FindContainer(TagId tag) const {
    auto it = containers_.find(tag);
    return it == containers_.end() ? nullptr : &it->second;
  }

  /// Q1's `container IsA 'freezer'` test; false for unknown/kNoTag.
  bool IsA(TagId container, ContainerClass klass) const {
    const ContainerInfo* info = FindContainer(container);
    return info != nullptr && info->klass == klass;
  }

 private:
  std::unordered_map<TagId, ProductInfo> products_;
  std::unordered_map<TagId, ContainerInfo> containers_;
};

}  // namespace rfid

#endif  // RFID_TRACE_PRODUCT_CATALOG_H_
