#include "hfmm/dp/layout.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace hfmm::dp {

namespace {

int log2_exact(std::int64_t v, const char* what) {
  if (v <= 0 || (v & (v - 1)) != 0)
    throw std::invalid_argument(std::string(what) + " must be a power of two");
  return std::countr_zero(static_cast<std::uint64_t>(v));
}

}  // namespace

BlockLayout::BlockLayout(std::int32_t boxes_per_side,
                         const MachineConfig& config)
    : n_(boxes_per_side), config_(config) {
  const int nb = log2_exact(n_, "BlockLayout: boxes_per_side");
  vbx_ = log2_exact(config.vu_x, "BlockLayout: vu_x");
  vby_ = log2_exact(config.vu_y, "BlockLayout: vu_y");
  vbz_ = log2_exact(config.vu_z, "BlockLayout: vu_z");
  if (vbx_ > nb || vby_ > nb || vbz_ > nb)
    throw std::invalid_argument(
        "BlockLayout: more VUs than boxes along an axis");
  lbx_ = nb - vbx_;
  lby_ = nb - vby_;
  lbz_ = nb - vbz_;
  sx_ = std::int32_t{1} << lbx_;
  sy_ = std::int32_t{1} << lby_;
  sz_ = std::int32_t{1} << lbz_;

  // Key bit positions. Local bits fill the low positions group by group,
  // x then y then z within a group, skipping an axis once its local bits
  // are used up; the VU-address bits of x, y, z follow in that order.
  const int local[3] = {lbx_, lby_, lbz_};
  int pos[3][32] = {};
  int next = 0;
  for (int b = 0; b < nb; ++b)
    for (int a = 0; a < 3; ++a)
      if (b < local[a]) pos[a][b] = next++;
  const int vu_shift[3] = {next, next + vbx_, next + vbx_ + vby_};
  for (int a = 0; a < 3; ++a) {
    axis_key_[a].resize(static_cast<std::size_t>(n_));
    for (std::int32_t i = 0; i < n_; ++i) {
      std::uint64_t key = static_cast<std::uint64_t>(i >> local[a])
                          << vu_shift[a];
      for (int b = 0; b < local[a]; ++b)
        key |= static_cast<std::uint64_t>((i >> b) & 1) << pos[a][b];
      axis_key_[a][static_cast<std::size_t>(i)] = key;
    }
  }
}

BoxHome BlockLayout::home_of(const tree::BoxCoord& c) const {
  const std::int32_t vx = c.ix >> lbx_;
  const std::int32_t vy = c.iy >> lby_;
  const std::int32_t vz = c.iz >> lbz_;
  const std::size_t vu =
      (static_cast<std::size_t>(vz) * config_.vu_y + vy) * config_.vu_x + vx;
  return {vu, c.ix & (sx_ - 1), c.iy & (sy_ - 1), c.iz & (sz_ - 1)};
}

tree::BoxCoord BlockLayout::global_of(const BoxHome& h) const {
  const auto vu = static_cast<std::int64_t>(h.vu);
  const std::int32_t vx = static_cast<std::int32_t>(vu % config_.vu_x);
  const std::int32_t vy = static_cast<std::int32_t>((vu / config_.vu_x) %
                                                    config_.vu_y);
  const std::int32_t vz =
      static_cast<std::int32_t>(vu / (static_cast<std::int64_t>(config_.vu_x) *
                                      config_.vu_y));
  return {(vx << lbx_) | h.lx, (vy << lby_) | h.ly, (vz << lbz_) | h.lz};
}

std::string BlockLayout::describe() const {
  std::ostringstream os;
  os << "axis | extent | VU bits | local bits | subgrid\n";
  os << "  x  | " << n_ << " | " << vbx_ << " | " << lbx_ << " | " << sx_
     << '\n';
  os << "  y  | " << n_ << " | " << vby_ << " | " << lby_ << " | " << sy_
     << '\n';
  os << "  z  | " << n_ << " | " << vbz_ << " | " << lbz_ << " | " << sz_
     << '\n';
  return os.str();
}

}  // namespace hfmm::dp
