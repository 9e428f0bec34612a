#pragma once
// Subtree ownership for the distributed executor (DESIGN.md Section 18).
//
// The partitioner splits the ACTIVE LEAVES (ascending flat order; the
// coordinate sort's particle order is Morton order, not this one) into R
// contiguous runs. Ownership of internal
// boxes follows the leaves upward: a box is owned by the owner of its first
// active child in octant order. Because the flat order is z-major exactly
// like the octant index (bit 2 of the octant is the z bit, which dominates
// the flat index), "first active octant" equals "lowest active child flat"
// WITHIN one parent. Across parents the owner map need not be monotone in
// the active index (a later parent's low-z child can precede an earlier
// parent's high-z child in leaf order), so a rank's owned set at an
// internal level is an ascending list, not necessarily a contiguous run —
// the LET builder collects it by scanning the owner map in active order.
// Every active box has exactly one owner; the root belongs to the rank
// owning the first active leaf.

#include <cstdint>
#include <span>
#include <vector>

#include "hfmm/tree/active_set.hpp"
#include "hfmm/tree/hierarchy.hpp"

namespace hfmm::tree {

/// Owner rank of every active box, per level. owner[l][ai] is the rank of
/// the box with ACTIVE index ai at level l.
struct OwnershipLevels {
  int depth = -1;
  int ranks = 1;
  std::vector<std::vector<std::int32_t>> owner;

  std::int32_t at(int level, std::int32_t active_index) const {
    return owner[static_cast<std::size_t>(level)]
                [static_cast<std::size_t>(active_index)];
  }
};

/// Builds per-level ownership from the leaf partition. `leaf_begin` has
/// R+1 entries: rank r owns active leaves [leaf_begin[r], leaf_begin[r+1])
/// of `act.levels[depth]` (ascending active-index runs covering all leaves).
void build_ownership(const Hierarchy& hier, const ActiveLevels& act,
                     std::span<const std::uint32_t> leaf_begin,
                     OwnershipLevels& out);

}  // namespace hfmm::tree
