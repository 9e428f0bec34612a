// Tests for the hierarchy and the interaction lists — including the paper's
// headline counts: 125-box near field, 875/189 interactive fields, the
// 1206-offset sibling union, the 1331 offset cube, and the 98 + 91 = 189
// supernode decomposition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "hfmm/core/solver.hpp"
#include "hfmm/tree/active_set.hpp"
#include "hfmm/tree/hierarchy.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/tree/refinement.hpp"
#include "hfmm/util/particles.hpp"
#include "hfmm/util/thread_pool.hpp"

namespace hfmm::tree {
namespace {

Hierarchy unit_hierarchy(int depth) { return Hierarchy(Box3{}, depth); }

TEST(HierarchyTest, BasicGeometry) {
  const Hierarchy h = unit_hierarchy(3);
  EXPECT_EQ(h.depth(), 3);
  EXPECT_EQ(h.boxes_per_side(0), 1);
  EXPECT_EQ(h.boxes_per_side(3), 8);
  EXPECT_EQ(h.boxes_at(3), 512u);
  EXPECT_DOUBLE_EQ(h.side_at(0), 1.0);
  EXPECT_DOUBLE_EQ(h.side_at(3), 0.125);
}

TEST(HierarchyTest, RejectsNonCube) {
  EXPECT_THROW(Hierarchy(Box3{{0, 0, 0}, {1, 2, 1}}, 2), std::invalid_argument);
  EXPECT_THROW(Hierarchy(Box3{}, -1), std::invalid_argument);
}

TEST(HierarchyTest, FlatIndexRoundtrip) {
  const Hierarchy h = unit_hierarchy(4);
  for (std::size_t f = 0; f < h.boxes_at(4); f += 7) {
    const BoxCoord c = h.coord_of(4, f);
    EXPECT_EQ(h.flat_index(4, c), f);
  }
}

TEST(HierarchyTest, FlatIndexIsXFastest) {
  const Hierarchy h = unit_hierarchy(2);
  EXPECT_EQ(h.flat_index(2, {1, 0, 0}), 1u);
  EXPECT_EQ(h.flat_index(2, {0, 1, 0}), 4u);
  EXPECT_EQ(h.flat_index(2, {0, 0, 1}), 16u);
}

TEST(HierarchyTest, CenterOfBoxes) {
  const Hierarchy h = unit_hierarchy(1);
  EXPECT_EQ(h.center(0, {0, 0, 0}), (Vec3{0.5, 0.5, 0.5}));
  EXPECT_EQ(h.center(1, {0, 0, 0}), (Vec3{0.25, 0.25, 0.25}));
  EXPECT_EQ(h.center(1, {1, 1, 1}), (Vec3{0.75, 0.75, 0.75}));
}

TEST(HierarchyTest, LeafOfClampsToDomain) {
  const Hierarchy h = unit_hierarchy(2);
  EXPECT_EQ(h.leaf_of({0.1, 0.1, 0.1}), (BoxCoord{0, 0, 0}));
  EXPECT_EQ(h.leaf_of({0.9, 0.9, 0.9}), (BoxCoord{3, 3, 3}));
  // Outside points clamp instead of crashing; 0.5 sits exactly on the
  // boundary between boxes 1 and 2 and floors into box 2.
  EXPECT_EQ(h.leaf_of({-5, 0.5, 2.0}), (BoxCoord{0, 2, 3}));
}

TEST(HierarchyTest, ParentChildOctantRelations) {
  for (int o = 0; o < 8; ++o) {
    const BoxCoord parent{3, 5, 2};
    const BoxCoord child = Hierarchy::child_of(parent, o);
    EXPECT_EQ(Hierarchy::parent_of(child), parent);
    EXPECT_EQ(Hierarchy::octant_of(child), o);
  }
}

TEST(HierarchyTest, OctantOffsetsAreHalfUnit) {
  for (int o = 0; o < 8; ++o) {
    const Vec3 off = Hierarchy::octant_offset(o);
    EXPECT_DOUBLE_EQ(std::abs(off.x), 0.5);
    EXPECT_DOUBLE_EQ(std::abs(off.y), 0.5);
    EXPECT_DOUBLE_EQ(std::abs(off.z), 0.5);
  }
  // Octant 0 is the low corner.
  EXPECT_EQ(Hierarchy::octant_offset(0), (Vec3{-0.5, -0.5, -0.5}));
}

TEST(HierarchyTest, CubeContainingIsCube) {
  const Box3 b{{0, 0, 0}, {2, 1, 0.5}};
  const Box3 c = cube_containing(b);
  const Vec3 e = c.extent();
  EXPECT_NEAR(e.x, e.y, 1e-12);
  EXPECT_NEAR(e.y, e.z, 1e-12);
  EXPECT_GE(e.x, 2.0);
}

TEST(HierarchyTest, OptimalDepthScalesWithN) {
  EXPECT_EQ(optimal_depth(10, 16.0), 0);
  EXPECT_EQ(optimal_depth(16 * 8, 16.0), 1);
  EXPECT_EQ(optimal_depth(16 * 64, 16.0), 2);
  // Doubling N by 8 adds one level.
  const int d1 = optimal_depth(100000, 24.0);
  EXPECT_EQ(optimal_depth(800000, 24.0), d1 + 1);
  EXPECT_THROW(optimal_depth(100, 0.0), std::invalid_argument);
}

TEST(NearFieldTest, CountsMatchPaper) {
  // (2d+1)^3: 27 for d=1, 125 for d=2 (paper Section 2.1).
  EXPECT_EQ(near_field_offsets(1).size(), 27u);
  EXPECT_EQ(near_field_offsets(2).size(), 125u);
  EXPECT_EQ(near_field_offsets(3).size(), 343u);
}

TEST(NearFieldTest, HalfOffsetsPartitionNeighbors) {
  for (int d : {1, 2}) {
    const auto half = near_field_half_offsets(d);
    const auto full = near_field_offsets(d);
    EXPECT_EQ(half.size(), (full.size() - 1) / 2);  // 62 for d = 2
    std::set<std::tuple<int, int, int>> seen;
    for (const Offset& o : half) {
      seen.insert({o.dx, o.dy, o.dz});
      seen.insert({-o.dx, -o.dy, -o.dz});
    }
    EXPECT_EQ(seen.size(), full.size() - 1);  // H u -H covers all, no self
  }
}

TEST(NearFieldTest, SixtyTwoBoxInteractionsForD2) {
  EXPECT_EQ(near_field_half_offsets(2).size(), 62u);  // paper Figure 10
}

class InteractiveFieldTest : public ::testing::TestWithParam<int> {};

TEST_P(InteractiveFieldTest, CountPerOctant) {
  const int d = GetParam();
  const std::size_t expected = 7u * (2 * d + 1) * (2 * d + 1) * (2 * d + 1);
  for (int o = 0; o < 8; ++o) {
    const auto offsets = interactive_offsets(o, d);
    EXPECT_EQ(offsets.size(), expected) << "octant " << o;
    // No offset may be inside the near field.
    for (const Offset& off : offsets)
      EXPECT_GT(std::max({std::abs(off.dx), std::abs(off.dy),
                          std::abs(off.dz)}),
                d);
    // No duplicates.
    std::set<std::tuple<int, int, int>> s;
    for (const Offset& off : offsets) s.insert({off.dx, off.dy, off.dz});
    EXPECT_EQ(s.size(), offsets.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Separations, InteractiveFieldTest,
                         ::testing::Values(1, 2, 3));

TEST(InteractiveFieldTest, PaperCounts875And189) {
  EXPECT_EQ(interactive_offsets(0, 2).size(), 875u);  // d = 2 (paper)
  EXPECT_EQ(interactive_offsets(0, 1).size(), 189u);  // d = 1
}

TEST(InteractiveFieldTest, OctantRangesMatchPaper) {
  // Octant 0 (even parity): offsets in [-4, 5] per axis; octant 7: [-5, 4]
  // (the paper's [-5+i, 4+i] ranges).
  const auto o0 = interactive_offsets(0, 2);
  const auto o7 = interactive_offsets(7, 2);
  auto minmax = [](const std::vector<Offset>& v) {
    int lo = 99, hi = -99;
    for (const Offset& o : v) {
      lo = std::min({lo, o.dx, o.dy, o.dz});
      hi = std::max({hi, o.dx, o.dy, o.dz});
    }
    return std::pair{lo, hi};
  };
  EXPECT_EQ(minmax(o0), (std::pair{-4, 5}));
  EXPECT_EQ(minmax(o7), (std::pair{-5, 4}));
}

TEST(InteractiveFieldTest, SiblingUnionHas1206Offsets) {
  const auto u = sibling_union_offsets(2);
  EXPECT_EQ(u.size(), 1206u);  // 11^3 - 5^3, paper Section 3.3.2
  // And equals the actual union over the 8 octants.
  std::set<std::tuple<int, int, int>> uni;
  for (int o = 0; o < 8; ++o)
    for (const Offset& off : interactive_offsets(o, 2))
      uni.insert({off.dx, off.dy, off.dz});
  EXPECT_EQ(uni.size(), 1206u);
}

TEST(InteractiveFieldTest, OffsetCubeIndexIsABijection) {
  const int d = 2;
  EXPECT_EQ(offset_cube_size(d), 1331u);  // 11^3, the paper's matrix count
  std::set<std::size_t> seen;
  for (int dz = -5; dz <= 5; ++dz)
    for (int dy = -5; dy <= 5; ++dy)
      for (int dx = -5; dx <= 5; ++dx) {
        const std::size_t i = offset_cube_index({dx, dy, dz}, d);
        EXPECT_LT(i, 1331u);
        seen.insert(i);
      }
  EXPECT_EQ(seen.size(), 1331u);
}

TEST(SupernodeTest, EffectiveCountIs189) {
  // The paper's headline: supernodes reduce the effective interactive field
  // from 875 to 189 (98 complete octets + 91 leftover children).
  for (int o = 0; o < 8; ++o) {
    const auto entries = supernode_interactive(o, 2);
    EXPECT_EQ(entries.size(), 189u) << "octant " << o;
    std::size_t parents = 0, children = 0;
    for (const auto& e : entries)
      (e.source_level_up == 1 ? parents : children)++;
    EXPECT_EQ(parents, 98u);
    EXPECT_EQ(children, 91u);
  }
}

TEST(SupernodeTest, FlatteningRecoversFullInteractiveField) {
  // Expanding every parent entry into its 8 children must reproduce the
  // plain 875-offset interactive field exactly.
  for (int oct : {0, 3, 7}) {
    const int px = oct & 1, py = (oct >> 1) & 1, pz = (oct >> 2) & 1;
    std::set<std::tuple<int, int, int>> flat;
    for (const auto& e : supernode_interactive(oct, 2)) {
      if (e.source_level_up == 0) {
        flat.insert({e.offset.dx, e.offset.dy, e.offset.dz});
      } else {
        for (int bz = 0; bz <= 1; ++bz)
          for (int by = 0; by <= 1; ++by)
            for (int bx = 0; bx <= 1; ++bx)
              flat.insert({2 * e.offset.dx + bx - px,
                           2 * e.offset.dy + by - py,
                           2 * e.offset.dz + bz - pz});
      }
    }
    std::set<std::tuple<int, int, int>> expect;
    for (const Offset& o : interactive_offsets(oct, 2))
      expect.insert({o.dx, o.dy, o.dz});
    EXPECT_EQ(flat, expect) << "octant " << oct;
  }
}

TEST(InteractionListTest, InvalidArgumentsThrow) {
  EXPECT_THROW(near_field_offsets(0), std::invalid_argument);
  EXPECT_THROW(interactive_offsets(-1, 2), std::invalid_argument);
  EXPECT_THROW(interactive_offsets(8, 2), std::invalid_argument);
  EXPECT_THROW(supernode_interactive(0, 0), std::invalid_argument);
}

// ------------------------------------------------- adaptive refinement (§15)

// An occupancy map (deepest-level flat index -> body count) turned into the
// full active sets plus subtree counts the refinement builders consume.
struct RefineFixture {
  Hierarchy hier;
  ActiveLevels act;
  std::vector<std::uint32_t> leaf_counts;
  std::vector<std::vector<std::uint32_t>> counts;
};

RefineFixture make_refine_fixture(
    const Hierarchy& hier,
    const std::map<std::uint32_t, std::uint32_t>& occupancy) {
  const int depth = hier.depth();
  RefineFixture f{hier, {}, {}, {}};
  std::vector<std::uint32_t> occ;
  occ.reserve(occupancy.size());
  for (const auto& [flat, n] : occupancy) occ.push_back(flat);
  build_active_levels(f.hier, occ, f.act);
  const std::vector<std::uint32_t>& lv =
      f.act.levels[static_cast<std::size_t>(depth)].boxes;
  f.leaf_counts.resize(lv.size());
  for (std::size_t i = 0; i < lv.size(); ++i)
    f.leaf_counts[i] = occupancy.at(lv[i]);
  build_subtree_counts(f.hier, f.act, f.leaf_counts, f.counts);
  return f;
}

RefineFixture make_refine_fixture(
    int depth, const std::map<std::uint32_t, std::uint32_t>& occupancy) {
  return make_refine_fixture(unit_hierarchy(depth), occupancy);
}

RefineFixture make_uniform_fixture(int depth, std::uint32_t per_leaf) {
  std::map<std::uint32_t, std::uint32_t> occ;
  const std::size_t boxes = std::size_t{1} << (3 * depth);
  for (std::uint32_t flat = 0; flat < boxes; ++flat) occ[flat] = per_leaf;
  return make_refine_fixture(depth, occ);
}

// One dense cluster (every deepest-level leaf under one level-2 box) plus a
// sparse background of single bodies along the opposite face diagonal.
RefineFixture make_clustered_fixture(int depth, std::uint32_t core_per_leaf) {
  std::map<std::uint32_t, std::uint32_t> occ;
  const Hierarchy hier = unit_hierarchy(depth);
  const int side = 1 << depth;
  const int core = side / 4;  // one level-2 octant subtree
  for (int z = 0; z < core; ++z)
    for (int y = 0; y < core; ++y)
      for (int x = 0; x < core; ++x)
        occ[hier.flat_index(depth, {x, y, z})] = core_per_leaf;
  for (int i = side / 2; i < side; i += 2)
    occ[hier.flat_index(depth, {i, i, i})] = 1;
  return make_refine_fixture(depth, occ);
}

// The tree the adaptive executor builds for the hfmm_bench `plummer`
// workload: make_plummer(64000, seed 1) sorted at the refinement cap depth.
RefineFixture make_plummer_fixture() {
  const ParticleSet p = make_plummer(64000, Box3{}, 1);
  core::FmmConfig cfg;
  cfg.hierarchy = core::HierarchyMode::kAdaptive;
  const Hierarchy hier(cube_containing(p.bounds()),
                       core::depth_for(cfg, p.size()));
  std::map<std::uint32_t, std::uint32_t> occ;
  for (std::size_t i = 0; i < p.size(); ++i)
    ++occ[static_cast<std::uint32_t>(
        hier.flat_index(hier.depth(), hier.leaf_of(p.position(i))))];
  return make_refine_fixture(hier, occ);
}

LeafFront mark_front(const RefineFixture& f, int ncrit) {
  LeafFront front;
  const std::vector<Offset> near = near_field_offsets(2);
  build_leaf_front(f.hier, f.act, f.counts, ncrit, 2, near, front);
  return front;
}

TEST(RefinementTest, UniformFrontCollapsesToSingleLevel) {
  // ncrit one full level above the per-leaf count: every level-2 box holds
  // exactly ncrit bodies, so the front is the uniform level-2 cut.
  const RefineFixture f = make_uniform_fixture(3, 4);
  const LeafFront front = mark_front(f, 4 * 8);
  EXPECT_EQ(front.leaves(), 64u);
  EXPECT_EQ(front.max_leaf_level, 2);
  for (std::size_t li = 0; li < front.leaves(); ++li)
    EXPECT_EQ(front.leaf_level[li], 2);
  // Deepest level fully pruned.
  for (const std::uint8_t s : front.state[3]) EXPECT_EQ(s, LeafFront::kBelow);
  // A threshold below the leaf count keeps every deepest box a leaf.
  const LeafFront fine = mark_front(f, 3);
  EXPECT_EQ(fine.leaves(), 512u);
  EXPECT_EQ(fine.max_leaf_level, 3);
}

TEST(RefinementTest, FrontLeavesPartitionTheBodies) {
  for (const bool clustered : {false, true}) {
    const RefineFixture f = clustered ? make_clustered_fixture(4, 12)
                                      : make_uniform_fixture(3, 5);
    for (const int ncrit : {8, 32, 128}) {
      const LeafFront front = mark_front(f, ncrit);
      std::uint64_t total = 0, expect = 0;
      for (std::size_t li = 0; li < front.leaves(); ++li) {
        const int l = front.leaf_level[li];
        const std::int32_t ai =
            f.act.levels[static_cast<std::size_t>(l)]
                .dense_to_active[front.leaf_flat[li]];
        ASSERT_GE(ai, 0);
        total += f.counts[static_cast<std::size_t>(l)]
                         [static_cast<std::size_t>(ai)];
      }
      for (const std::uint32_t c : f.leaf_counts) expect += c;
      EXPECT_EQ(total, expect) << "ncrit " << ncrit;
    }
  }
}

TEST(RefinementTest, ClusteredFrontRefinesCoreOnly) {
  const RefineFixture f = make_clustered_fixture(4, 12);
  const LeafFront front = mark_front(f, 16);
  // The core (12 bodies x 4^3 deepest leaves under one octant) must refine
  // to the cap while the singleton background stays shallow.
  EXPECT_EQ(front.max_leaf_level, 4);
  int shallowest = front.depth;
  for (std::size_t li = 0; li < front.leaves(); ++li)
    shallowest = std::min(shallowest, front.leaf_level[li]);
  EXPECT_LT(shallowest, 4);
  EXPECT_GE(shallowest, front.min_level);
}

// Brute-force U-list of a front: every unordered pair of distinct leaves
// whose boxes are colleagues (chebyshev <= separation at the coarser side,
// the deeper leaf mapped through its ancestor). Level gaps >= 2 are a
// balance violation and reported as such.
std::set<std::pair<std::uint64_t, std::uint64_t>> brute_force_pairs(
    const RefineFixture& f, const LeafFront& front, bool* balanced) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> pairs;
  *balanced = true;
  const auto key = [](int l, std::uint32_t flat) {
    return (static_cast<std::uint64_t>(l) << 40) | flat;
  };
  for (std::size_t a = 0; a < front.leaves(); ++a) {
    for (std::size_t b = a + 1; b < front.leaves(); ++b) {
      int la = front.leaf_level[a], lb = front.leaf_level[b];
      std::uint32_t fa = front.leaf_flat[a], fb = front.leaf_flat[b];
      if (la > lb) {
        std::swap(la, lb);
        std::swap(fa, fb);
      }
      BoxCoord cb = f.hier.coord_of(lb, fb);
      for (int l = lb; l > la; --l) cb = Hierarchy::parent_of(cb);
      const BoxCoord ca = f.hier.coord_of(la, fa);
      const int cheb = std::max({std::abs(ca.ix - cb.ix),
                                 std::abs(ca.iy - cb.iy),
                                 std::abs(ca.iz - cb.iz)});
      if (cheb > 2) continue;
      if (lb - la >= 2) *balanced = false;
      pairs.insert({std::min(key(la, fa), key(lb, fb)),
                    std::max(key(la, fa), key(lb, fb))});
    }
  }
  return pairs;
}

TEST(RefinementTest, NearPairsCoverEveryAdjacencyExactlyOnce) {
  const RefineFixture f = make_clustered_fixture(4, 12);
  const std::vector<Offset> near = near_field_offsets(2);
  const std::vector<Offset> near_half = near_field_half_offsets(2);
  for (const int ncrit : {8, 16, 64}) {
    const LeafFront front = mark_front(f, ncrit);
    bool balanced = false;
    const auto expect = brute_force_pairs(f, front, &balanced);
    // The balance ripple's contract: no adjacency spans 2+ levels.
    EXPECT_TRUE(balanced) << "ncrit " << ncrit;
    const auto key = [](int l, std::uint32_t flat) {
      return (static_cast<std::uint64_t>(l) << 40) | flat;
    };
    std::set<std::pair<std::uint64_t, std::uint64_t>> got;
    std::size_t emitted = 0;
    for_each_near_pair(
        f.hier, f.act, front, near, near_half,
        [&](std::size_t li, int sl, std::uint32_t sa) {
          const std::uint64_t own =
              key(front.leaf_level[li], front.leaf_flat[li]);
          const std::uint64_t src = key(
              sl, f.act.levels[static_cast<std::size_t>(sl)].boxes[sa]);
          got.insert({std::min(own, src), std::max(own, src)});
          ++emitted;
        });
    EXPECT_EQ(got.size(), emitted) << "duplicate adjacency, ncrit " << ncrit;
    EXPECT_EQ(got, expect) << "ncrit " << ncrit;
  }
}

TEST(RefinementTest, CostSelectorAgreesWithOptimalDepthOnUniform) {
  // On uniform inputs the cost model reduces to an occupancy rule. An
  // interior leaf holding m bodies carries ~62.5 m^2 near pairs (m^2 / 2
  // self pairs plus m^2 per each of its 62 half-list neighbours) and 63
  // kernel calls. Splitting it into 8 leaves of m / 8 removes 7/8 of those
  // pairs and adds 8 * 63 - 63 = 441 calls and 8 boxes, so it pays exactly
  // when
  //   (7/8) * 62.5 * m^2 * pair_ns > 441 * call_ns + 8 * box_ns,
  // i.e. above the break-even m* (~34 bodies with the fitted gradient
  // rates and the supernode box cost, k = 12). The cost model therefore
  // refines while a leaf holds more than m*, and stops at the first level
  // whose mean occupancy m satisfies m* / 8 < m <= m* — the level
  // optimal_depth(n, m* / 8) returns (~4.2 bodies per leaf).
  RefinementCostParams params;
  const RefinementCostParams::NearRates rates = params.near_rates();
  const double m_star =
      std::sqrt((441.0 * rates.call_ns + 8.0 * params.box_ns()) /
                (7.0 / 8.0 * 62.5 * rates.pair_ns));
  const std::vector<Offset> near_half = near_field_half_offsets(2);
  for (const std::uint32_t per_leaf : {4u, 8u}) {
    const RefineFixture f = make_uniform_fixture(4, per_leaf);
    const std::size_t n = per_leaf * 4096;
    const int by_cost =
        select_uniform_depth(f.hier, f.act, f.counts, near_half, params);
    EXPECT_EQ(by_cost, optimal_depth(n, m_star / 8.0)) << per_leaf;
  }
}

TEST(RefinementTest, CostSelectorDivergesFromOccupancyOnClustered) {
  // Same body count as a uniform input whose mean occupancy picks level 3 —
  // but concentrated in one octant subtree, where exact pair counts demand
  // the full depth. Mean occupancy cannot see the difference.
  const RefineFixture f = make_clustered_fixture(5, 60);
  std::size_t n = 0;
  for (const std::uint32_t c : f.leaf_counts) n += c;
  RefinementCostParams params;
  const std::vector<Offset> near_half = near_field_half_offsets(2);
  const int by_cost =
      select_uniform_depth(f.hier, f.act, f.counts, near_half, params);
  EXPECT_GT(by_cost, optimal_depth(n, 8.0));
}

TEST(RefinementTest, AdaptiveFrontBeatsUniformOnClustered) {
  // Depth 5: the core spans 8 leaves per side, wider than the d = 2 near
  // field, so refining it removes pairs. (At depth 4 the core is 4 leaves
  // wide and every core pair stays direct at any cut; the best uniform cut
  // there is the unrefined level 2, which no ladder rung <= 128 reaches.)
  const RefineFixture f = make_clustered_fixture(5, 24);
  RefinementCostParams params;
  const std::vector<Offset> near = near_field_offsets(2);
  const std::vector<Offset> near_half = near_field_half_offsets(2);
  LeafFront scratch;
  const std::vector<int> ladder{8, 16, 32, 64, 128};
  const int ncrit = select_ncrit(f.hier, f.act, f.counts, near, near_half,
                                 params, ladder, 2, scratch);
  EXPECT_NE(std::find(ladder.begin(), ladder.end(), ncrit), ladder.end());
  LeafFront front;
  build_leaf_front(f.hier, f.act, f.counts, ncrit, 2, near, front);
  const RefinementCost adaptive =
      front_cost(f.hier, f.act, f.counts, front, near, near_half, params);
  const int h = select_uniform_depth(f.hier, f.act, f.counts, near_half,
                                     params);
  const RefinementCost uniform =
      uniform_cost(f.hier, f.act, f.counts, h, near_half, params);
  // The whole point of the ncrit front: strictly less modeled time than
  // the best uniform cut — here by carrying far fewer expansion boxes —
  // with the near-pair count essentially unchanged (coarse background
  // leaves may pick up a handful of extra adjacencies).
  EXPECT_LT(adaptive.seconds, uniform.seconds);
  EXPECT_LT(adaptive.tree_boxes, uniform.tree_boxes);
  EXPECT_LE(adaptive.near_pairs, uniform.near_pairs + uniform.near_pairs / 50);
}

// The balance ripple as it was first written: every leaf B walks its
// ancestor chain and splits any leaf within `near` of each ancestor two or
// more levels up — O(levels x 125) lookups per leaf per pass. Kept as the
// reference that build_leaf_front's neighbour-flag ripple must reproduce.
LeafFront reference_front(const RefineFixture& f, int ncrit) {
  const Hierarchy& hier = f.hier;
  const ActiveLevels& act = f.act;
  const std::vector<Offset> near = near_field_offsets(2);
  const int depth = act.depth;
  const int min_level = std::min(2, depth);
  LeafFront out;
  out.depth = depth;
  out.min_level = min_level;
  out.ncrit = ncrit;
  out.state.resize(static_cast<std::size_t>(depth) + 1);
  const auto limit = static_cast<std::uint32_t>(ncrit);
  for (int l = 0; l <= depth; ++l) {
    const LevelActiveSet& lvl = act.levels[static_cast<std::size_t>(l)];
    auto& st = out.state[static_cast<std::size_t>(l)];
    st.assign(lvl.count(), LeafFront::kBelow);
    for (std::size_t ai = 0; ai < lvl.count(); ++ai) {
      if (l > min_level) {
        const BoxCoord c = hier.coord_of(l, lvl.boxes[ai]);
        const std::int32_t pai =
            act.levels[static_cast<std::size_t>(l - 1)].dense_to_active
                [hier.flat_index(l - 1, Hierarchy::parent_of(c))];
        if (out.state[static_cast<std::size_t>(l - 1)]
                     [static_cast<std::size_t>(pai)] != LeafFront::kInternal)
          continue;
      }
      if (l < min_level)
        st[ai] = LeafFront::kInternal;
      else if (l == depth || f.counts[static_cast<std::size_t>(l)][ai] <= limit)
        st[ai] = LeafFront::kLeaf;
      else
        st[ai] = LeafFront::kInternal;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int l = depth; l >= min_level + 2; --l) {
      const LevelActiveSet& lvl = act.levels[static_cast<std::size_t>(l)];
      for (std::size_t ai = 0; ai < lvl.count(); ++ai) {
        if (out.state[static_cast<std::size_t>(l)][ai] != LeafFront::kLeaf)
          continue;
        BoxCoord anc = Hierarchy::parent_of(hier.coord_of(l, lvl.boxes[ai]));
        for (int la = l - 2; la >= min_level; --la) {
          anc = Hierarchy::parent_of(anc);
          const LevelActiveSet& coarse =
              act.levels[static_cast<std::size_t>(la)];
          auto& cst = out.state[static_cast<std::size_t>(la)];
          for (const Offset& o : near) {
            const BoxCoord nb{anc.ix + o.dx, anc.iy + o.dy, anc.iz + o.dz};
            if (!hier.in_bounds(la, nb)) continue;
            const std::int32_t ci =
                coarse.dense_to_active[hier.flat_index(la, nb)];
            if (ci < 0 || cst[static_cast<std::size_t>(ci)] != LeafFront::kLeaf)
              continue;
            cst[static_cast<std::size_t>(ci)] = LeafFront::kInternal;
            const LevelActiveSet& kids =
                act.levels[static_cast<std::size_t>(la + 1)];
            for (int oc = 0; oc < 8; ++oc) {
              const std::int32_t ki = kids.dense_to_active[hier.flat_index(
                  la + 1, Hierarchy::child_of(nb, oc))];
              if (ki >= 0)
                out.state[static_cast<std::size_t>(la + 1)]
                         [static_cast<std::size_t>(ki)] = LeafFront::kLeaf;
            }
            changed = true;
          }
        }
      }
    }
  }
  for (int l = 0; l <= depth; ++l) {
    const LevelActiveSet& lvl = act.levels[static_cast<std::size_t>(l)];
    for (std::size_t ai = 0; ai < lvl.count(); ++ai) {
      if (out.state[static_cast<std::size_t>(l)][ai] != LeafFront::kLeaf)
        continue;
      out.leaf_level.push_back(l);
      out.leaf_flat.push_back(lvl.boxes[ai]);
    }
  }
  return out;
}

TEST(RefinementTest, RippleMatchesReferenceFronts) {
  std::vector<std::pair<const char*, RefineFixture>> fixtures;
  fixtures.emplace_back("clustered(4,12)", make_clustered_fixture(4, 12));
  fixtures.emplace_back("clustered(4,24)", make_clustered_fixture(4, 24));
  fixtures.emplace_back("clustered(5,24)", make_clustered_fixture(5, 24));
  fixtures.emplace_back("clustered(5,60)", make_clustered_fixture(5, 60));
  fixtures.emplace_back("uniform(4,8)", make_uniform_fixture(4, 8));
  fixtures.emplace_back("plummer64k", make_plummer_fixture());
  for (const auto& [name, f] : fixtures) {
    for (const int ncrit : {8, 16, 32, 64, 128}) {
      const LeafFront want = reference_front(f, ncrit);
      const LeafFront got = mark_front(f, ncrit);
      for (int l = 0; l <= f.act.depth; ++l)
        EXPECT_EQ(got.state[static_cast<std::size_t>(l)],
                  want.state[static_cast<std::size_t>(l)])
            << name << " ncrit " << ncrit << " level " << l;
      EXPECT_EQ(got.leaf_level, want.leaf_level) << name << " ncrit " << ncrit;
      EXPECT_EQ(got.leaf_flat, want.leaf_flat) << name << " ncrit " << ncrit;
    }
  }
}

// front_cost counts the pairs box by box; for_each_near_pair enumerates
// them leaf by leaf for the solver's plan. Both must see the same U list.
TEST(RefinementTest, FrontCostCountsTheNearPairPlan) {
  std::vector<std::pair<const char*, RefineFixture>> fixtures;
  fixtures.emplace_back("clustered(4,12)", make_clustered_fixture(4, 12));
  fixtures.emplace_back("clustered(5,60)", make_clustered_fixture(5, 60));
  fixtures.emplace_back("uniform(4,8)", make_uniform_fixture(4, 8));
  fixtures.emplace_back("plummer64k", make_plummer_fixture());
  const std::vector<Offset> near = near_field_offsets(2);
  const std::vector<Offset> near_half = near_field_half_offsets(2);
  const RefinementCostParams params;
  for (const auto& [name, f] : fixtures) {
    for (const int ncrit : {8, 32, 128}) {
      const LeafFront front = mark_front(f, ncrit);
      const auto bodies = [&](int l, std::size_t ai) -> std::uint64_t {
        return f.counts[static_cast<std::size_t>(l)][ai];
      };
      std::uint64_t pairs = 0, calls = front.leaves();
      for (std::size_t li = 0; li < front.leaves(); ++li) {
        const int l = front.leaf_level[li];
        const std::uint64_t t = bodies(
            l, static_cast<std::size_t>(
                   f.act.levels[static_cast<std::size_t>(l)]
                       .dense_to_active[front.leaf_flat[li]]));
        pairs += t * (t - 1) / 2;
      }
      for_each_near_pair(
          f.hier, f.act, front, near, near_half,
          [&](std::size_t li, int sl, std::uint32_t sa) {
            const int l = front.leaf_level[li];
            pairs += bodies(l, static_cast<std::size_t>(
                                   f.act.levels[static_cast<std::size_t>(l)]
                                       .dense_to_active[front.leaf_flat[li]])) *
                     bodies(sl, sa);
            ++calls;
          });
      std::uint64_t boxes = 0;
      for (const auto& st : front.state)
        for (const std::uint8_t s : st) boxes += s != LeafFront::kBelow;
      const RefinementCost c =
          front_cost(f.hier, f.act, f.counts, front, near, near_half, params);
      EXPECT_EQ(c.near_pairs, pairs) << name << " ncrit " << ncrit;
      EXPECT_EQ(c.leaf_calls, calls) << name << " ncrit " << ncrit;
      EXPECT_EQ(c.tree_boxes, boxes) << name << " ncrit " << ncrit;
    }
  }
}

TEST(RefinementTest, PickIndependentOfPool) {
  // The pool path marks rung i into fronts[i] on any worker; the pick and
  // the winner's front match the one-at-a-time path.
  const RefineFixture f = make_plummer_fixture();
  const std::vector<Offset> near = near_field_offsets(2);
  const std::vector<Offset> near_half = near_field_half_offsets(2);
  const std::vector<int> ladder{8, 16, 32, 64, 128};
  for (const bool supernodes : {false, true}) {
    RefinementCostParams params;
    params.supernodes = supernodes;
    LeafFront scratch;
    const int seq = select_ncrit(f.hier, f.act, f.counts, near, near_half,
                                 params, ladder, 2, scratch);
    for (const std::size_t workers : {1u, 3u}) {
      ThreadPool pool(workers);
      std::vector<LeafFront> fronts(ladder.size());
      const int par = select_ncrit(f.hier, f.act, f.counts, near, near_half,
                                   params, ladder, 2, fronts, &pool);
      EXPECT_EQ(par, seq) << workers;
      const std::size_t won = static_cast<std::size_t>(
          std::find(ladder.begin(), ladder.end(), par) - ladder.begin());
      const LeafFront want = mark_front(f, par);
      EXPECT_EQ(fronts[won].leaf_flat, want.leaf_flat) << workers;
      EXPECT_EQ(fronts[won].leaf_level, want.leaf_level) << workers;
    }
  }
}

TEST(RefinementTest, ModelPicksCoarseFrontOnPlummer) {
  // The hfmm_bench `plummer` config: k = 12, gradient on, no supernodes.
  // Forced-ncrit solves of this input measure 32, 64 and 128 within 10% of
  // the best rung, and 8 (the old flop model's pick) at 1.6-2.4x.
  const RefineFixture f = make_plummer_fixture();
  RefinementCostParams params;
  params.k = 12;
  params.supernodes = false;
  params.gradient = true;
  const std::vector<Offset> near = near_field_offsets(2);
  const std::vector<Offset> near_half = near_field_half_offsets(2);
  const std::vector<int> ladder{8, 16, 32, 64, 128};
  LeafFront scratch;
  const int ncrit = select_ncrit(f.hier, f.act, f.counts, near, near_half,
                                 params, ladder, 2, scratch);
  EXPECT_TRUE(ncrit == 32 || ncrit == 64 || ncrit == 128) << ncrit;
}

TEST(RefinementTest, BoxCostUsesTheRealInteractionListLength) {
  RefinementCostParams params;
  const double per_translation =
      RefinementCostParams::kTranslationNsPerEntry * 144.0;
  for (int octant = 0; octant < 8; ++octant) {
    params.supernodes = true;
    EXPECT_DOUBLE_EQ(
        params.box_ns(),
        static_cast<double>(supernode_interactive(octant, 2).size() + 2) *
            per_translation);
    params.supernodes = false;
    EXPECT_DOUBLE_EQ(
        params.box_ns(),
        static_cast<double>(interactive_offsets(octant, 2).size() + 2) *
            per_translation);
  }
}

TEST(RefinementTest, WarmRemarkNoHeapGrowth) {
  const RefineFixture f = make_clustered_fixture(4, 12);
  const std::vector<Offset> near = near_field_offsets(2);
  LeafFront front;
  build_leaf_front(f.hier, f.act, f.counts, 16, 2, near, front);
  ActiveLevels pruned;
  std::vector<std::vector<std::uint8_t>> leaf_flags;
  build_front_levels(f.hier, f.act, front, pruned, leaf_flags);
  const std::size_t before = front.capacity_bytes() + pruned.capacity_bytes();
  build_leaf_front(f.hier, f.act, f.counts, 16, 2, near, front);
  build_front_levels(f.hier, f.act, front, pruned, leaf_flags);
  EXPECT_EQ(front.capacity_bytes() + pruned.capacity_bytes(), before);
}

TEST(RefinementTest, PrunedLevelsMatchFrontStates) {
  const RefineFixture f = make_clustered_fixture(4, 12);
  const LeafFront front = mark_front(f, 16);
  ActiveLevels pruned;
  std::vector<std::vector<std::uint8_t>> leaf_flags;
  build_front_levels(f.hier, f.act, front, pruned, leaf_flags);
  EXPECT_EQ(pruned.depth, front.max_leaf_level);
  std::size_t leaves_seen = 0;
  for (int l = 0; l <= pruned.depth; ++l) {
    const LevelActiveSet& pl = pruned.levels[static_cast<std::size_t>(l)];
    const LevelActiveSet& al = f.act.levels[static_cast<std::size_t>(l)];
    ASSERT_EQ(leaf_flags[static_cast<std::size_t>(l)].size(), pl.count());
    for (std::size_t i = 0; i < pl.count(); ++i) {
      const std::uint32_t flat = pl.boxes[i];
      const std::int32_t ai = al.dense_to_active[flat];
      ASSERT_GE(ai, 0);
      const std::uint8_t st =
          front.state[static_cast<std::size_t>(l)][static_cast<std::size_t>(
              ai)];
      EXPECT_NE(st, LeafFront::kBelow);
      const bool is_leaf = st == LeafFront::kLeaf;
      EXPECT_EQ(leaf_flags[static_cast<std::size_t>(l)][i] != 0, is_leaf);
      leaves_seen += is_leaf ? 1u : 0u;
    }
  }
  EXPECT_EQ(leaves_seen, front.leaves());
}

}  // namespace
}  // namespace hfmm::tree
