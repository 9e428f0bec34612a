// Tests for the data-parallel substrate: layouts, distributed grids, CSHIFT,
// the four halo strategies of Table 4, the multigrid embedding of Figure 7,
// replication strategies of Figures 8/9, and the coordinate sort of Fig. 5.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "hfmm/dp/halo.hpp"
#include "hfmm/dp/multigrid.hpp"
#include "hfmm/dp/replicate.hpp"
#include "hfmm/dp/sort.hpp"

namespace hfmm::dp {
namespace {

// Deterministic per-box payload so data movement errors are detectable.
double box_value(const tree::BoxCoord& c, std::size_t i) {
  return 1000.0 * c.iz + 100.0 * c.iy + 10.0 * c.ix + static_cast<double>(i);
}

void fill_grid(DistGrid& g) {
  const BlockLayout& l = g.layout();
  const std::int32_t n = l.boxes_per_side();
  for (std::int32_t z = 0; z < n; ++z)
    for (std::int32_t y = 0; y < n; ++y)
      for (std::int32_t x = 0; x < n; ++x) {
        auto v = g.at_global({x, y, z});
        for (std::size_t i = 0; i < g.k(); ++i) v[i] = box_value({x, y, z}, i);
      }
}

TEST(MachineTest, ConfigValidation) {
  EXPECT_TRUE((MachineConfig{1, 1, 1}).valid());
  EXPECT_TRUE((MachineConfig{4, 2, 1}).valid());
  EXPECT_FALSE((MachineConfig{3, 2, 1}).valid());
  EXPECT_THROW(Machine(MachineConfig{0, 1, 1}), std::invalid_argument);
}

TEST(MachineTest, StatsArithmetic) {
  CommStats a{10, 20, 3, 1, 0, 0, 0.5}, b{5, 5, 1, 1, 0, 0, 0.25};
  a += b;
  EXPECT_EQ(a.off_vu_bytes, 15u);
  EXPECT_DOUBLE_EQ(a.modeled_seconds, 0.75);
  const CommStats d = a - b;
  EXPECT_EQ(d.off_vu_bytes, 10u);
  EXPECT_EQ(d.messages, 3u);
  EXPECT_DOUBLE_EQ(d.modeled_seconds, 0.5);
}

TEST(MachineTest, ChargeParallelTransferUsesCriticalPath) {
  Machine machine({2, 2, 2});  // 8 VUs
  machine.cost_model().seconds_per_message = 1.0;
  machine.cost_model().seconds_per_off_vu_byte = 0.1;
  machine.cost_model().seconds_per_local_byte = 0.01;
  machine.charge_parallel_transfer(/*off=*/800, /*msgs=*/8, /*local=*/80);
  // Per-VU share: 1 message, 100 off bytes, 10 local bytes.
  EXPECT_NEAR(machine.estimated_comm_seconds(), 1.0 + 10.0 + 0.1, 1e-12);
  EXPECT_EQ(machine.stats().off_vu_bytes, 800u);
}

TEST(MachineTest, CostModelPresets) {
  const CostModel cm5 = CostModel::cm5e_like();
  const CostModel modern = CostModel::modern_cluster();
  // Modern machines: lower latency, vastly higher bandwidth.
  EXPECT_LT(modern.seconds_per_message, cm5.seconds_per_message);
  EXPECT_LT(modern.seconds_per_off_vu_byte, cm5.seconds_per_off_vu_byte);
}

TEST(LayoutTest, BitSplitsMatchFigure4) {
  // 16 boxes per side over a 4 x 2 x 1 VU grid: subgrids 4 x 8 x 16.
  const BlockLayout l(16, {4, 2, 1});
  EXPECT_EQ(l.vu_bits_x(), 2);
  EXPECT_EQ(l.vu_bits_y(), 1);
  EXPECT_EQ(l.vu_bits_z(), 0);
  EXPECT_EQ(l.local_bits_x(), 2);
  EXPECT_EQ(l.sub_x(), 4);
  EXPECT_EQ(l.sub_y(), 8);
  EXPECT_EQ(l.sub_z(), 16);
  EXPECT_EQ(l.boxes_per_vu(), 512u);
}

TEST(LayoutTest, HomeGlobalRoundtrip) {
  const BlockLayout l(8, {2, 2, 2});
  for (std::int32_t z = 0; z < 8; ++z)
    for (std::int32_t y = 0; y < 8; ++y)
      for (std::int32_t x = 0; x < 8; ++x) {
        const BoxHome h = l.home_of({x, y, z});
        EXPECT_EQ(l.global_of(h), (tree::BoxCoord{x, y, z}));
        EXPECT_LT(h.vu, 8u);
      }
}

TEST(LayoutTest, SortKeysAreDenseAndVuMajor) {
  const BlockLayout l(4, {2, 1, 1});
  std::set<std::uint64_t> keys;
  for (std::int32_t z = 0; z < 4; ++z)
    for (std::int32_t y = 0; y < 4; ++y)
      for (std::int32_t x = 0; x < 4; ++x) {
        const std::uint64_t k = l.sort_key({x, y, z});
        EXPECT_LT(k, 64u);
        keys.insert(k);
        // High bits are the VU rank: boxes on VU 0 sort before VU 1.
        EXPECT_EQ(k / l.boxes_per_vu(), l.home_of({x, y, z}).vu);
      }
  EXPECT_EQ(keys.size(), 64u);
}

TEST(LayoutTest, EveryOctreeBoxIsOneKeyRange) {
  // Leaf grid 8^3 (depth 3). A box at level l covers 2^(3-l) leaves per
  // axis; it lies inside one VU when that span fits the smallest local
  // extent, and then its leaves' keys must form one contiguous range.
  const int h = 3;
  for (const MachineConfig mc : {MachineConfig{1, 1, 1},
                                 MachineConfig{2, 1, 1}}) {
    const BlockLayout l(8, mc);
    const int min_local = std::min(
        {l.local_bits_x(), l.local_bits_y(), l.local_bits_z()});
    for (int level = h - min_local; level <= h; ++level) {
      const std::int32_t side = std::int32_t{1} << (h - level);
      const std::int32_t boxes = std::int32_t{1} << level;
      for (std::int32_t bz = 0; bz < boxes; ++bz)
        for (std::int32_t by = 0; by < boxes; ++by)
          for (std::int32_t bx = 0; bx < boxes; ++bx) {
            std::set<std::uint64_t> keys;
            for (std::int32_t z = 0; z < side; ++z)
              for (std::int32_t y = 0; y < side; ++y)
                for (std::int32_t x = 0; x < side; ++x)
                  keys.insert(l.sort_key(
                      {bx * side + x, by * side + y, bz * side + z}));
            ASSERT_EQ(keys.size(),
                      static_cast<std::size_t>(side) * side * side);
            EXPECT_EQ(*keys.rbegin() - *keys.begin() + 1, keys.size())
                << "VU grid " << mc.vu_x << "x" << mc.vu_y << "x" << mc.vu_z
                << ", level " << level << ", box (" << bx << ", " << by
                << ", " << bz << ")";
          }
    }
  }
}

TEST(LayoutTest, RejectsBadShapes) {
  EXPECT_THROW(BlockLayout(12, {2, 2, 2}), std::invalid_argument);  // not 2^k
  EXPECT_THROW(BlockLayout(4, {8, 1, 1}), std::invalid_argument);  // VUs > boxes
}

TEST(DistGridTest, GlobalLocalConsistency) {
  const BlockLayout l(4, {2, 2, 1});
  DistGrid g(l, 3);
  fill_grid(g);
  for (std::int32_t z = 0; z < 4; ++z)
    for (std::int32_t y = 0; y < 4; ++y)
      for (std::int32_t x = 0; x < 4; ++x) {
        const BoxHome h = l.home_of({x, y, z});
        const auto via_local = g.at(h.vu, h.lx, h.ly, h.lz);
        const auto via_global = g.at_global({x, y, z});
        EXPECT_EQ(via_local.data(), via_global.data());
        EXPECT_DOUBLE_EQ(via_local[1], box_value({x, y, z}, 1));
      }
}

class CshiftTest
    : public ::testing::TestWithParam<std::tuple<int, std::int32_t>> {};

TEST_P(CshiftTest, MatchesReference) {
  const auto [axis, offset] = GetParam();
  Machine machine({2, 2, 1});
  const BlockLayout l(8, machine.config());
  DistGrid src(l, 2), dst(l, 2);
  fill_grid(src);
  cshift(machine, src, dst, axis, offset);
  for (std::int32_t z = 0; z < 8; ++z)
    for (std::int32_t y = 0; y < 8; ++y)
      for (std::int32_t x = 0; x < 8; ++x) {
        tree::BoxCoord s{x, y, z};
        auto& comp = axis == 0 ? s.ix : (axis == 1 ? s.iy : s.iz);
        comp = ((comp - offset) % 8 + 8) % 8;
        EXPECT_DOUBLE_EQ(dst.at_global({x, y, z})[0], box_value(s, 0));
      }
  EXPECT_EQ(machine.stats().cshift_steps, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AxesOffsets, CshiftTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, -1, 3, 8, -5)));

TEST(CshiftTest, CountsOffVuTraffic) {
  Machine machine({2, 1, 1});
  const BlockLayout l(8, machine.config());
  DistGrid src(l, 1), dst(l, 1);
  machine.reset_stats();
  cshift(machine, src, dst, 0, 1);
  // Unit shift along x with subgrid 4: one of four x-slices crosses per
  // block: 2 crossing slices of 64 boxes... exactly 2*64 = 128 boxes? No:
  // indices 0..7, sources i-1: crossing at i=0 (src 7, other VU) and i=4
  // (src 3): 2 slices x 64 boxes/slice = 128 boxes.
  EXPECT_EQ(machine.stats().off_vu_bytes, 128u * sizeof(double));
  EXPECT_EQ(machine.stats().local_bytes, (512u - 128u) * sizeof(double));
}

TEST(CshiftTest, FullWrapIsLocal) {
  Machine machine({2, 1, 1});
  const BlockLayout l(4, machine.config());
  DistGrid src(l, 1), dst(l, 1);
  cshift(machine, src, dst, 0, 4);  // full circle
  EXPECT_EQ(machine.stats().off_vu_bytes, 0u);
}

class HaloStrategyTest : public ::testing::TestWithParam<HaloStrategy> {};

TEST_P(HaloStrategyTest, ProducesCorrectPeriodicHalo) {
  Machine machine({2, 2, 2});
  const BlockLayout l(8, machine.config());
  DistGrid grid(l, 2);
  fill_grid(grid);
  HaloGrid halo(l, 2, 2);
  fill_halo(machine, grid, halo, GetParam());
  // Every halo cell must equal the periodic neighbor it represents.
  for (std::size_t vu = 0; vu < machine.vus(); ++vu) {
    const tree::BoxCoord origin = l.global_of({vu, 0, 0, 0});
    for (std::int32_t hz = 0; hz < halo.ext_z(); ++hz)
      for (std::int32_t hy = 0; hy < halo.ext_y(); ++hy)
        for (std::int32_t hx = 0; hx < halo.ext_x(); ++hx) {
          const auto wrap = [](std::int32_t v) { return ((v % 8) + 8) % 8; };
          const tree::BoxCoord src{wrap(origin.ix + hx - 2),
                                   wrap(origin.iy + hy - 2),
                                   wrap(origin.iz + hz - 2)};
          EXPECT_DOUBLE_EQ(halo.at(vu, hx, hy, hz)[1], box_value(src, 1))
              << to_string(GetParam()) << " vu=" << vu << " h=(" << hx << ","
              << hy << "," << hz << ")";
        }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, HaloStrategyTest,
    ::testing::Values(HaloStrategy::kDirectCshift,
                      HaloStrategy::kLinearizedCshift,
                      HaloStrategy::kGhostSections, HaloStrategy::kSubgridSnake),
    [](const auto& info) {
      std::string s = to_string(info.param);
      for (char& c : s)
        if (c == '-' || c == '/') c = '_';
      return s;
    });

TEST(HaloTest, Table4OrderingOfDataMotion) {
  // The paper's Table 4 ordering: aliased (section) fetches move far less
  // data than linearized whole-grid CSHIFTs, which move less than direct
  // per-offset CSHIFT sequences.
  const MachineConfig mc{2, 2, 2};
  auto run = [&](HaloStrategy s) {
    Machine machine(mc);
    const BlockLayout l(8, mc);
    DistGrid grid(l, 2);
    fill_grid(grid);
    HaloGrid halo(l, 2, 2);
    fill_halo(machine, grid, halo, s);
    return machine.stats();
  };
  const CommStats direct = run(HaloStrategy::kDirectCshift);
  const CommStats linear = run(HaloStrategy::kLinearizedCshift);
  const CommStats sections = run(HaloStrategy::kGhostSections);
  const CommStats snake = run(HaloStrategy::kSubgridSnake);
  EXPECT_GT(direct.off_vu_bytes, linear.off_vu_bytes);
  EXPECT_GT(linear.off_vu_bytes, snake.off_vu_bytes);
  EXPECT_GE(snake.off_vu_bytes, sections.off_vu_bytes);
  // The subgrid snake uses far fewer primitive operations than the
  // linearized whole-grid walk.
  EXPECT_LT(snake.cshift_steps, linear.cshift_steps);
  // Sections fetch exactly the ghost volume.
  const std::size_t ghost_cells = 8u * (8 * 8 * 8 - 4 * 4 * 4);
  EXPECT_EQ(sections.off_vu_bytes + sections.local_bytes -
                8u * 64 * 2 * sizeof(double),  // minus interior copy
            ghost_cells * 2 * sizeof(double));
}

TEST(HaloTest, RejectsGhostDeeperThanSubgrid) {
  Machine machine({4, 4, 4});
  const BlockLayout l(8, machine.config());  // subgrids 2^3
  DistGrid grid(l, 1);
  HaloGrid halo(l, 1, 3);
  EXPECT_THROW(fill_halo(machine, grid, halo, HaloStrategy::kGhostSections),
               std::invalid_argument);
}

TEST(MultigridTest, SectionGeometry) {
  const MachineConfig mc{2, 2, 2};
  const BlockLayout leaf(16, mc);
  const MultigridArray mg(leaf, 4, 3);
  EXPECT_EQ(mg.section_stride(4), 1);   // leaf
  EXPECT_EQ(mg.section_start(4), 0);
  EXPECT_EQ(mg.section_stride(3), 2);
  EXPECT_EQ(mg.section_start(3), 1);
  EXPECT_EQ(mg.section_stride(2), 4);
  EXPECT_EQ(mg.section_start(2), 2);
  EXPECT_EQ(mg.section_stride(0), 16);
  EXPECT_EQ(mg.section_start(0), 8);
}

TEST(MultigridTest, LevelsDoNotCollideInLayer1) {
  // Distinct (level, box) pairs map to distinct storage positions.
  const MachineConfig mc{1, 1, 1};
  const BlockLayout leaf(16, mc);
  MultigridArray mg(leaf, 4, 1);
  mg.fill(0.0);
  for (int l = 0; l < 4; ++l) {
    const std::int32_t n = 1 << l;
    for (std::int32_t z = 0; z < n; ++z)
      for (std::int32_t y = 0; y < n; ++y)
        for (std::int32_t x = 0; x < n; ++x) mg.at(l, {x, y, z})[0] += 1.0;
  }
  // Total writes = sum of boxes over levels 0..3; all cells must be 0 or 1.
  double total = 0;
  for (std::size_t vu = 0; vu < 1; ++vu) {
    for (double v : mg.coarse_layer().vu_data(vu)) {
      EXPECT_TRUE(v == 0.0 || v == 1.0);
      total += v;
    }
  }
  EXPECT_DOUBLE_EQ(total, 1 + 8 + 64 + 512);
}

class EmbedMethodTest : public ::testing::TestWithParam<EmbedMethod> {};

TEST_P(EmbedMethodTest, EmbedExtractRoundtripAllLevels) {
  Machine machine({2, 2, 2});
  const BlockLayout leaf(8, machine.config());
  MultigridArray mg(leaf, 3, 2);
  for (int level = 0; level <= 3; ++level) {
    const BlockLayout ll = layout_for_level(leaf, level);
    DistGrid temp(ll, 2);
    fill_grid(temp);
    multigrid_embed(machine, temp, level, mg, GetParam());
    DistGrid back(ll, 2);
    multigrid_extract(machine, mg, level, back, GetParam());
    const std::int32_t n = ll.boxes_per_side();
    for (std::int32_t z = 0; z < n; ++z)
      for (std::int32_t y = 0; y < n; ++y)
        for (std::int32_t x = 0; x < n; ++x)
          EXPECT_DOUBLE_EQ(back.at_global({x, y, z})[0],
                           box_value({x, y, z}, 0))
              << "level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, EmbedMethodTest,
                         ::testing::Values(EmbedMethod::kGeneralSend,
                                           EmbedMethod::kLocalCopy),
                         [](const auto& info) {
                           return info.param == EmbedMethod::kGeneralSend
                                      ? "general_send"
                                      : "local_copy";
                         });

TEST(MultigridTest, LocalCopyAvoidsOffVuTrafficWhenAligned) {
  // Levels with >= 1 box per VU embed with zero off-VU bytes (Section 3.3.2).
  Machine machine({2, 2, 2});
  const BlockLayout leaf(16, machine.config());
  MultigridArray mg(leaf, 4, 1);
  const BlockLayout l3 = layout_for_level(leaf, 3);
  DistGrid temp(l3, 1);
  machine.reset_stats();
  multigrid_embed(machine, temp, 3, mg, EmbedMethod::kLocalCopy);
  EXPECT_EQ(machine.stats().off_vu_bytes, 0u);
  EXPECT_GT(machine.stats().local_bytes, 0u);
}

TEST(MultigridTest, GeneralSendAlwaysRoutesThroughNetwork) {
  Machine machine({2, 2, 2});
  const BlockLayout leaf(16, machine.config());
  MultigridArray mg(leaf, 4, 1);
  const BlockLayout l3 = layout_for_level(leaf, 3);
  DistGrid temp(l3, 1);
  machine.reset_stats();
  multigrid_embed(machine, temp, 3, mg, EmbedMethod::kGeneralSend);
  EXPECT_GT(machine.stats().off_vu_bytes, 0u);
}

TEST(ReplicateTest, AllStrategiesProduceIdenticalMatrices) {
  const auto compute = [](std::size_t i, std::span<double> out) {
    for (std::size_t j = 0; j < out.size(); ++j)
      out[j] = static_cast<double>(i * 100 + j);
  };
  for (ReplicateStrategy s :
       {ReplicateStrategy::kComputeEverywhere,
        ReplicateStrategy::kComputeReplicate,
        ReplicateStrategy::kComputeReplicateGrouped}) {
    Machine machine({2, 2, 2});
    const auto r = replicate_matrices(machine, 8, 4, s, compute);
    ASSERT_EQ(r.matrices.size(), 8u);
    EXPECT_DOUBLE_EQ(r.matrices[3][2], 302.0);
  }
}

TEST(ReplicateTest, TradeoffCounters) {
  const auto compute = [](std::size_t, std::span<double> out) {
    for (double& v : out) v = 1.0;
  };
  Machine m_every({4, 4, 4}), m_repl({4, 4, 4}), m_group({4, 4, 4});
  const auto every = replicate_matrices(
      m_every, 8, 16, ReplicateStrategy::kComputeEverywhere, compute);
  const auto repl = replicate_matrices(
      m_repl, 8, 16, ReplicateStrategy::kComputeReplicate, compute);
  const auto group = replicate_matrices(
      m_group, 8, 16, ReplicateStrategy::kComputeReplicateGrouped, compute);
  // Compute everywhere: P x the construction work, zero communication.
  EXPECT_EQ(every.compute_invocations, 8u * 64);
  EXPECT_EQ(m_every.stats().off_vu_bytes, 0u);
  // Replicate: one construction each, 8 broadcasts.
  EXPECT_EQ(repl.compute_invocations, 8u);
  EXPECT_EQ(m_repl.stats().broadcasts, 8u);
  EXPECT_GT(m_repl.stats().off_vu_bytes, 0u);
  // Grouping reduces broadcast traffic (paper Fig. 8: factor 1.26-1.75).
  EXPECT_LT(m_group.stats().off_vu_bytes, m_repl.stats().off_vu_bytes);
}

TEST(SortTest, CoordinateSortGroupsByBox) {
  const tree::Hierarchy hier(Box3{}, 2);
  const BlockLayout layout(4, {2, 2, 1});
  const ParticleSet p = make_uniform(500, Box3{}, 21);
  const BoxedParticles b = coordinate_sort(p, hier, layout);
  ASSERT_EQ(b.sorted.size(), 500u);
  ASSERT_EQ(b.box_begin.size(), 65u);
  // Within the sorted order, box_of must follow rank order.
  for (std::size_t r = 0; r < 64; ++r)
    for (std::uint32_t i = b.box_begin[r]; i < b.box_begin[r + 1]; ++i)
      EXPECT_EQ(b.box_of[i], b.rank_to_flat[r]);
  // Every particle is inside its assigned box.
  for (std::size_t i = 0; i < 500; ++i) {
    const tree::BoxCoord c = hier.coord_of(2, b.box_of[i]);
    EXPECT_EQ(hier.flat_index(2, hier.leaf_of(b.sorted.position(i))),
              hier.flat_index(2, c));
  }
}

TEST(SortTest, OneVuSortMakesEveryBoxOneRange) {
  // With one VU the key is the Morton code, so the particles of any box at
  // any level are exactly box_range's slice of the sorted order.
  const tree::Hierarchy hier(Box3{}, 3);
  const BlockLayout layout(8, {1, 1, 1});
  const ParticleSet p = make_uniform(700, Box3{}, 23);
  const BoxedParticles b = coordinate_sort(p, hier, layout);
  for (int level = 0; level <= 3; ++level) {
    // Flat index at `level` of the box holding sorted particle i.
    const auto box_at_level = [&](std::size_t i) {
      tree::BoxCoord c = hier.coord_of(3, b.box_of[i]);
      for (int l = 3; l > level; --l) c = tree::Hierarchy::parent_of(c);
      return hier.flat_index(level, c);
    };
    std::vector<std::uint32_t> count(hier.boxes_at(level), 0);
    for (std::size_t i = 0; i < b.sorted.size(); ++i) ++count[box_at_level(i)];
    for (std::size_t f = 0; f < hier.boxes_at(level); ++f) {
      const auto [lo, hi] = box_range(b, hier, level, f);
      ASSERT_EQ(hi - lo, count[f]) << "level " << level << ", box " << f;
      for (std::uint32_t i = lo; i < hi; ++i) EXPECT_EQ(box_at_level(i), f);
    }
  }
}

TEST(SortTest, PermRecoversOriginalOrder) {
  const tree::Hierarchy hier(Box3{}, 2);
  const BlockLayout layout(4, {1, 1, 1});
  const ParticleSet p = make_uniform(100, Box3{}, 22);
  const BoxedParticles b = coordinate_sort(p, hier, layout);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(b.sorted.position(i), p.position(b.perm[i]));
}

TEST(SortTest, CoordinateSortIsPerfectlyLocalWithBoxPerVu) {
  // The paper's claim (Section 3.2): with at least one leaf box per VU and
  // uniform particles, every sorted particle lands on its box's home VU.
  const tree::Hierarchy hier(Box3{}, 3);
  const BlockLayout layout(8, {2, 2, 2});
  // One particle per box makes the 1-D block partition exact.
  ParticleSet p(512);
  for (std::size_t f = 0; f < 512; ++f)
    p.set(f, hier.center(3, hier.coord_of(3, f)), 1.0);
  const BoxedParticles b = coordinate_sort(p, hier, layout);
  const SortLocality loc = measure_locality(b, hier, layout);
  EXPECT_DOUBLE_EQ(loc.home_fraction, 1.0);
  EXPECT_EQ(loc.off_vu_bytes, 0u);
}

TEST(SortTest, MortonSortIsLessLocalThanCoordinateSort) {
  const tree::Hierarchy hier(Box3{}, 3);
  const BlockLayout layout(8, {4, 2, 1});  // anisotropic VU grid
  ParticleSet p(512);
  for (std::size_t f = 0; f < 512; ++f)
    p.set(f, hier.center(3, hier.coord_of(3, f)), 1.0);
  const SortLocality coord =
      measure_locality(coordinate_sort(p, hier, layout), hier, layout);
  // A one-VU layout has no VU bits: its key is the plain Morton code.
  const BlockLayout one_vu(8, {1, 1, 1});
  const SortLocality morton =
      measure_locality(coordinate_sort(p, hier, one_vu), hier, layout);
  EXPECT_DOUBLE_EQ(coord.home_fraction, 1.0);
  EXPECT_LT(morton.home_fraction, 1.0);
}

TEST(SortTest, SegmentedScan) {
  const std::vector<double> in{1, 2, 3, 4, 5};
  const std::vector<std::uint32_t> offsets{0, 2, 2, 5};
  std::vector<double> out(5);
  segmented_scan_add(in, offsets, out);
  EXPECT_DOUBLE_EQ(out[0], 1);
  EXPECT_DOUBLE_EQ(out[1], 3);
  EXPECT_DOUBLE_EQ(out[2], 3);
  EXPECT_DOUBLE_EQ(out[3], 7);
  EXPECT_DOUBLE_EQ(out[4], 12);
}

}  // namespace
}  // namespace hfmm::dp
