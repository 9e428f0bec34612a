#include "hfmm/tree/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hfmm::tree {

Hierarchy::Hierarchy(const Box3& root, int depth) : root_(root), depth_(depth) {
  if (depth < 0) throw std::invalid_argument("Hierarchy: depth must be >= 0");
  const Vec3 e = root.extent();
  side_ = e.x;
  constexpr double kTol = 1e-9;
  if (std::abs(e.y - side_) > kTol * side_ ||
      std::abs(e.z - side_) > kTol * side_)
    throw std::invalid_argument("Hierarchy: root box must be a cube");
}

Vec3 Hierarchy::center(int level, const BoxCoord& c) const {
  const double s = side_at(level);
  return root_.lo + Vec3{(c.ix + 0.5) * s, (c.iy + 0.5) * s, (c.iz + 0.5) * s};
}

BoxCoord Hierarchy::leaf_of(const Vec3& p) const {
  const double s = side_at(depth_);
  const std::int32_t n = boxes_per_side(depth_);
  const auto clamp_axis = [&](double v, double lo) {
    const auto i = static_cast<std::int32_t>(std::floor((v - lo) / s));
    return std::clamp(i, 0, n - 1);
  };
  return {clamp_axis(p.x, root_.lo.x), clamp_axis(p.y, root_.lo.y),
          clamp_axis(p.z, root_.lo.z)};
}

Box3 cube_containing(const Box3& b, double pad) {
  const Vec3 c = b.center();
  const double half = 0.5 * b.max_side() * (1.0 + pad);
  return {c - Vec3{half, half, half}, c + Vec3{half, half, half}};
}

int optimal_depth(std::size_t n_particles, double particles_per_leaf) {
  if (particles_per_leaf <= 0.0)
    throw std::invalid_argument("optimal_depth: occupancy must be positive");
  int h = 0;
  // Deepest level whose average occupancy is still >= the target.
  while ((static_cast<double>(n_particles) /
          static_cast<double>(std::size_t{1} << (3 * (h + 1)))) >=
         particles_per_leaf)
    ++h;
  return h;
}

}  // namespace hfmm::tree
