#pragma once
// Block layout of a 3-D grid of boxes over the VU grid (paper Section 3.1,
// Figure 4).
//
// With block allocation the binary address of a box coordinate splits into
// high-order VU-address bits and low-order local-memory bits, per axis. All
// extents are powers of two, so the split is exactly a bit split — this is
// what the coordinate sort (Section 3.2) exploits to build its keys.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "hfmm/dp/machine.hpp"
#include "hfmm/tree/hierarchy.hpp"

namespace hfmm::dp {

/// Where one box lives: owning VU rank plus local subgrid coordinates.
struct BoxHome {
  std::size_t vu = 0;
  std::int32_t lx = 0;
  std::int32_t ly = 0;
  std::int32_t lz = 0;
};

class BlockLayout {
 public:
  /// Grid of `boxes_per_side`^3 boxes distributed over `config`'s VU grid.
  /// Each VU-grid extent must divide the box extent (both powers of two).
  BlockLayout(std::int32_t boxes_per_side, const MachineConfig& config);

  std::int32_t boxes_per_side() const { return n_; }
  std::size_t total_boxes() const {
    return static_cast<std::size_t>(n_) * n_ * n_;
  }

  /// Subgrid extents per VU (S1, S2, S3 in the paper's notation).
  std::int32_t sub_x() const { return sx_; }
  std::int32_t sub_y() const { return sy_; }
  std::int32_t sub_z() const { return sz_; }
  std::size_t boxes_per_vu() const {
    return static_cast<std::size_t>(sx_) * sy_ * sz_;
  }

  const MachineConfig& machine() const { return config_; }

  BoxHome home_of(const tree::BoxCoord& c) const;
  tree::BoxCoord global_of(const BoxHome& h) const;

  /// Local flat index within a VU's subgrid, x fastest.
  std::size_t local_index(std::int32_t lx, std::int32_t ly,
                          std::int32_t lz) const {
    return (static_cast<std::size_t>(lz) * sy_ + ly) * sx_ + lx;
  }

  /// Numbers of VU-address bits per axis (the paper's Figure 4 rows).
  int vu_bits_x() const { return vbx_; }
  int vu_bits_y() const { return vby_; }
  int vu_bits_z() const { return vbz_; }
  int local_bits_x() const { return lbx_; }
  int local_bits_y() const { return lby_; }
  int local_bits_z() const { return lbz_; }

  /// The coordinate-sort key of a box (Section 3.2): the VU-address bits
  /// of (z, y, x) concatenated, z..zy..yx..x, above the local-address bits
  /// interleaved in Morton order, ...zyxzyx (z above y above x within each
  /// bit group; an axis that runs out of local bits drops out of the higher
  /// groups). Keys are dense in [0, total_boxes()). Sorting particles by
  /// this key makes the block-partitioned 1-D order agree with box homes,
  /// and every octree box that lies inside one VU is one contiguous key
  /// range — with a single VU, every box at every level.
  std::uint64_t sort_key(const tree::BoxCoord& c) const {
    return axis_key_[0][static_cast<std::size_t>(c.ix)] |
           axis_key_[1][static_cast<std::size_t>(c.iy)] |
           axis_key_[2][static_cast<std::size_t>(c.iz)];
  }

  /// Human-readable address-field description (for the quickstart example's
  /// --show-layout mode; mirrors the paper's Figure 4).
  std::string describe() const;

 private:
  std::int32_t n_;
  MachineConfig config_;
  std::int32_t sx_, sy_, sz_;
  int vbx_, vby_, vbz_, lbx_, lby_, lbz_;
  // Per axis, per coordinate: that coordinate's share of sort_key(), so a
  // key costs three lookups.
  std::array<std::vector<std::uint64_t>, 3> axis_key_;
};

}  // namespace hfmm::dp
