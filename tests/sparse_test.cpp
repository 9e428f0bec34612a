// Sparse active-box hierarchy (DESIGN.md Section 13): active-set
// derivation, cost-model chunk splitting, and the sparse executors'
// agreement with the dense paths — bitwise where the arithmetic is
// identical (auto-dense on uniform inputs, the masked data-parallel moves),
// within tolerance where only the accumulation grouping differs (forced
// sparse vs dense BLAS-3 aggregation).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "hfmm/baseline/direct.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/errors.hpp"
#include "hfmm/dp/multigrid.hpp"
#include "hfmm/exec/graph.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/active_set.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/tree/refinement.hpp"
#include "hfmm/util/particles.hpp"

namespace hfmm {
namespace {

// ---------------------------------------------------------------- active set

tree::Hierarchy make_hier(int depth) { return tree::Hierarchy(Box3{}, depth); }

TEST(ActiveSetTest, SingleOccupiedLeaf) {
  const tree::Hierarchy hier = make_hier(3);
  const tree::BoxCoord leaf{5, 2, 7};
  const std::uint32_t flat =
      static_cast<std::uint32_t>(hier.flat_index(3, leaf));
  tree::ActiveLevels act;
  tree::build_active_levels(hier, std::vector<std::uint32_t>{flat}, act);

  ASSERT_EQ(act.depth, 3);
  tree::BoxCoord c = leaf;
  for (int l = 3; l >= 0; --l) {
    EXPECT_EQ(act.levels[l].count(), 1u) << "level " << l;
    EXPECT_EQ(act.levels[l].boxes[0], hier.flat_index(l, c)) << "level " << l;
    EXPECT_EQ(act.levels[l].dense_to_active[hier.flat_index(l, c)], 0);
    c = tree::Hierarchy::parent_of(c);
  }
  EXPECT_EQ(act.total_active(), 4u);
  // Everything else is inactive.
  int inactive = 0;
  for (std::int32_t v : act.levels[3].dense_to_active) inactive += (v < 0);
  EXPECT_EQ(inactive, 511);
}

TEST(ActiveSetTest, ParentClosureOnRandomSubset) {
  const tree::Hierarchy hier = make_hier(4);
  std::vector<std::uint32_t> occupied;
  // A deterministic scattered subset, unsorted and with duplicates.
  for (std::uint32_t i = 0; i < 4096; i += 37) occupied.push_back(i % 4096);
  occupied.push_back(occupied.front());
  tree::ActiveLevels act;
  tree::build_active_levels(hier, occupied, act);

  for (int l = 1; l <= 4; ++l) {
    const auto& lvl = act.levels[l];
    // Ascending unique flat indices — the fixed reduction order.
    for (std::size_t i = 1; i < lvl.boxes.size(); ++i)
      EXPECT_LT(lvl.boxes[i - 1], lvl.boxes[i]);
    for (const std::uint32_t flat : lvl.boxes) {
      const tree::BoxCoord c = hier.coord_of(l, flat);
      const std::size_t pflat =
          hier.flat_index(l - 1, tree::Hierarchy::parent_of(c));
      EXPECT_TRUE(act.levels[l - 1].active(pflat))
          << "level " << l << " box " << flat << " has inactive parent";
    }
  }
  // Every active internal box has at least one active child.
  for (int l = 0; l < 4; ++l)
    for (const std::uint32_t flat : act.levels[l].boxes) {
      const tree::BoxCoord c = hier.coord_of(l, flat);
      bool any = false;
      for (int o = 0; o < 8; ++o)
        any |= act.levels[l + 1].active(
            hier.flat_index(l + 1, tree::Hierarchy::child_of(c, o)));
      EXPECT_TRUE(any) << "level " << l << " box " << flat;
    }
}

TEST(ActiveSetTest, FullyOccupiedIsAllActive) {
  const tree::Hierarchy hier = make_hier(2);
  std::vector<std::uint32_t> occupied(64);
  std::iota(occupied.begin(), occupied.end(), 0u);
  tree::ActiveLevels act;
  tree::build_active_levels(hier, occupied, act);
  for (int l = 0; l <= 2; ++l) {
    EXPECT_TRUE(act.level_all_active(l));
    EXPECT_DOUBLE_EQ(act.occupancy(l), 1.0);
  }
  EXPECT_EQ(act.total_active(), act.total_dense());
}

TEST(ActiveSetTest, DepthZeroAndOne) {
  {
    const tree::Hierarchy hier = make_hier(0);
    tree::ActiveLevels act;
    tree::build_active_levels(hier, std::vector<std::uint32_t>{0}, act);
    ASSERT_EQ(act.depth, 0);
    EXPECT_EQ(act.levels[0].count(), 1u);
  }
  {
    const tree::Hierarchy hier = make_hier(1);
    tree::ActiveLevels act;
    tree::build_active_levels(hier, std::vector<std::uint32_t>{3, 6}, act);
    ASSERT_EQ(act.depth, 1);
    EXPECT_EQ(act.levels[1].count(), 2u);
    EXPECT_EQ(act.levels[0].count(), 1u);
    EXPECT_EQ(act.levels[1].dense_to_active[3], 0);
    EXPECT_EQ(act.levels[1].dense_to_active[6], 1);
    EXPECT_FALSE(act.levels[1].active(0));
  }
}

TEST(ActiveSetTest, EmptyOccupiedListYieldsEmptyLevels) {
  const tree::Hierarchy hier = make_hier(2);
  tree::ActiveLevels act;
  tree::build_active_levels(hier, {}, act);
  for (int l = 0; l <= 2; ++l) EXPECT_EQ(act.levels[l].count(), 0u);
  EXPECT_EQ(act.total_active(), 0u);
}

TEST(ActiveSetTest, WarmRebuildNoHeapGrowth) {
  const tree::Hierarchy hier = make_hier(3);
  std::vector<std::uint32_t> occupied;
  for (std::uint32_t i = 0; i < 512; i += 11) occupied.push_back(i);
  tree::ActiveLevels act;
  tree::build_active_levels(hier, occupied, act);
  const std::size_t bytes = act.capacity_bytes();
  tree::build_active_levels(hier, occupied, act);
  EXPECT_EQ(act.capacity_bytes(), bytes);
}

// --------------------------------------------------- cost-model chunk split

TEST(WeightedSplitTest, BoundsInvariants) {
  const std::vector<std::uint64_t> w{5, 1, 1, 1, 8, 1, 1, 1, 1, 5};
  for (std::size_t cap : {1u, 2u, 3u, 4u, 10u, 50u}) {
    const auto b = exec::weighted_split(w, cap);
    ASSERT_GE(b.size(), 2u);
    EXPECT_EQ(b.front(), 0u);
    EXPECT_EQ(b.back(), w.size());
    for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
    EXPECT_LE(b.size() - 1, std::min<std::size_t>(cap, w.size()));
  }
}

TEST(WeightedSplitTest, SkewedWeightsBalanceCost) {
  // One dominating item: with 4 chunks the split must isolate it rather
  // than cut the range into equal quarters.
  std::vector<std::uint64_t> w(16, 1);
  w[3] = 1000;
  const auto b = exec::weighted_split(w, 4);
  std::uint64_t max_cost = 0;
  for (std::size_t c = 0; c + 1 < b.size(); ++c) {
    std::uint64_t cost = 0;
    for (std::size_t i = b[c]; i < b[c + 1]; ++i) cost += w[i];
    max_cost = std::max(max_cost, cost);
  }
  // The dominating item's chunk carries at most the item plus a few unit
  // neighbors — far below an equal-count split's 1000 + 3.
  EXPECT_LE(max_cost, 1003u);
  std::size_t chunk_of_3 = 0;
  for (std::size_t c = 0; c + 1 < b.size(); ++c)
    if (b[c] <= 3 && 3 < b[c + 1]) chunk_of_3 = b[c + 1] - b[c];
  EXPECT_LE(chunk_of_3, 4u);
}

TEST(WeightedSplitTest, ZeroWeightsStillCoverRange) {
  const std::vector<std::uint64_t> w(7, 0);
  const auto b = exec::weighted_split(w, 3);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 7u);
}

TEST(WeightedSplitTest, Deterministic) {
  std::vector<std::uint64_t> w;
  for (std::uint64_t i = 0; i < 100; ++i) w.push_back((i * 2654435761u) % 97);
  EXPECT_EQ(exec::weighted_split(w, 8), exec::weighted_split(w, 8));
}

TEST(PhaseGraphTest, WeightedStageCoversRangeAndReportsImbalance) {
  std::vector<std::uint64_t> weights(64, 1);
  weights[10] = 200;  // force a visible imbalance
  std::vector<std::atomic<int>> visits(64);
  exec::PhaseGraph g;
  g.add_weighted("work", "near", weights, 8,
                 [&](std::size_t, std::size_t lo, std::size_t hi,
                     PhaseStats& stats) {
                   for (std::size_t i = lo; i < hi; ++i)
                     visits[i].fetch_add(1, std::memory_order_relaxed);
                   stats.flops += hi - lo;
                 });
  ThreadPool pool(4);
  PhaseBreakdown breakdown;
  std::vector<exec::StageTiming> timeline;
  g.run(pool, exec::RunMode::kConcurrent, breakdown, &timeline);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  EXPECT_EQ(breakdown.phases().at("near").flops, 64u);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_GE(timeline[0].cost_imbalance, 1.0);
  EXPECT_GE(breakdown.phases().at("near").cost_imbalance, 1.0);
}

// -------------------------------------------------- masked multigrid moves

class MaskedEmbedTest : public ::testing::TestWithParam<dp::EmbedMethod> {};

TEST_P(MaskedEmbedTest, MaskedMovesMatchDenseAndCutTraffic) {
  dp::Machine machine({2, 2, 2});
  const dp::BlockLayout leaf(8, machine.config());
  const int level = 3;
  const dp::BlockLayout ll = dp::layout_for_level(leaf, level);
  const std::int32_t n = ll.boxes_per_side();

  // Active set: one corner octant of the level. dense_to_active carries the
  // active ordinals; the moves only test for >= 0.
  std::vector<std::int32_t> active(static_cast<std::size_t>(n) * n * n, -1);
  std::int32_t next = 0;
  for (std::int32_t z = 0; z < n / 2; ++z)
    for (std::int32_t y = 0; y < n / 2; ++y)
      for (std::int32_t x = 0; x < n / 2; ++x)
        active[(static_cast<std::size_t>(z) * n + y) * n + x] = next++;

  // An active-consistent level grid: values on active boxes, zero elsewhere
  // (exactly the invariant the solver maintains — inactive far fields are
  // exactly zero).
  dp::DistGrid temp(ll, 2);
  for (std::int32_t z = 0; z < n; ++z)
    for (std::int32_t y = 0; y < n; ++y)
      for (std::int32_t x = 0; x < n; ++x) {
        if (active[(static_cast<std::size_t>(z) * n + y) * n + x] < 0)
          continue;
        auto v = temp.at_global({x, y, z});
        v[0] = 1.0 + x + 10.0 * y + 100.0 * z;
        v[1] = 0.5 * v[0];
      }

  dp::MultigridArray dense_mg(leaf, 3, 2), masked_mg(leaf, 3, 2);
  dense_mg.fill(0.0);
  masked_mg.fill(0.0);
  machine.reset_stats();
  dp::multigrid_embed(machine, temp, level, dense_mg, GetParam());
  const auto dense_stats = machine.stats();
  machine.reset_stats();
  dp::multigrid_embed(machine, temp, level, masked_mg, GetParam(), active);
  const auto masked_stats = machine.stats();

  for (std::int32_t z = 0; z < n; ++z)
    for (std::int32_t y = 0; y < n; ++y)
      for (std::int32_t x = 0; x < n; ++x) {
        const auto a = dense_mg.at(level, {x, y, z});
        const auto b = masked_mg.at(level, {x, y, z});
        EXPECT_EQ(a[0], b[0]) << x << "," << y << "," << z;
        EXPECT_EQ(a[1], b[1]) << x << "," << y << "," << z;
      }
  EXPECT_LT(masked_stats.off_vu_bytes + masked_stats.local_bytes,
            dense_stats.off_vu_bytes + dense_stats.local_bytes);

  // Extraction: masked extract of the masked embed equals the dense
  // round-trip on every box (inactive boxes read back the zeros they held).
  dp::DistGrid back_dense(ll, 2), back_masked(ll, 2);
  dp::multigrid_extract(machine, dense_mg, level, back_dense, GetParam());
  dp::multigrid_extract(machine, masked_mg, level, back_masked, GetParam(),
                        active);
  for (std::int32_t z = 0; z < n; ++z)
    for (std::int32_t y = 0; y < n; ++y)
      for (std::int32_t x = 0; x < n; ++x)
        EXPECT_EQ(back_dense.at_global({x, y, z})[0],
                  back_masked.at_global({x, y, z})[0]);
}

INSTANTIATE_TEST_SUITE_P(Methods, MaskedEmbedTest,
                         ::testing::Values(dp::EmbedMethod::kGeneralSend,
                                           dp::EmbedMethod::kLocalCopy),
                         [](const auto& info) {
                           return info.param == dp::EmbedMethod::kGeneralSend
                                      ? "general_send"
                                      : "local_copy";
                         });

// ------------------------------------------------------- solver agreement

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

core::FmmConfig sparse_config(core::HierarchyMode mode, int depth) {
  core::FmmConfig cfg;
  cfg.depth = depth;
  cfg.supernodes = true;
  cfg.with_gradient = true;
  cfg.hierarchy = mode;
  return cfg;
}

void expect_close(const core::FmmResult& a, const core::FmmResult& b,
                  double rel) {
  ASSERT_EQ(a.phi.size(), b.phi.size());
  double scale = 0.0;
  for (const double v : a.phi) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < a.phi.size(); ++i)
    EXPECT_NEAR(a.phi[i], b.phi[i], rel * scale) << i;
  ASSERT_EQ(a.grad.size(), b.grad.size());
  double gscale = 0.0;
  for (const Vec3& g : a.grad)
    gscale = std::max({gscale, std::abs(g.x), std::abs(g.y), std::abs(g.z)});
  for (std::size_t i = 0; i < a.grad.size(); ++i) {
    EXPECT_NEAR(a.grad[i].x, b.grad[i].x, rel * gscale) << i;
    EXPECT_NEAR(a.grad[i].y, b.grad[i].y, rel * gscale) << i;
    EXPECT_NEAR(a.grad[i].z, b.grad[i].z, rel * gscale) << i;
  }
}

TEST(SparseSolveTest, AutoStaysDenseAndBitwiseOnUniform) {
  // A fully occupied uniform input must keep the dense path under kAuto —
  // and therefore reproduce the dense executor's bits exactly.
  const ParticleSet p = make_uniform(4000, Box3{}, 11);
  core::FmmSolver dense(sparse_config(core::HierarchyMode::kDense, 3));
  core::FmmSolver auto_s(sparse_config(core::HierarchyMode::kAuto, 3));
  const core::FmmResult rd = dense.solve(p);
  const core::FmmResult ra = auto_s.solve(p);
  EXPECT_FALSE(ra.sparse);
  EXPECT_TRUE(bitwise_equal(rd.phi, ra.phi));
  EXPECT_EQ(rd.active_boxes, ra.active_boxes);
}

TEST(SparseSolveTest, AutoSelectsSparseOnPlummer) {
  const ParticleSet p = make_plummer(3000, Box3{}, 12);
  core::FmmSolver solver(sparse_config(core::HierarchyMode::kAuto, 4));
  const core::FmmResult r = solver.solve(p);
  EXPECT_TRUE(r.sparse);
  ASSERT_EQ(r.level_occupancy.size(), 5u);
  EXPECT_LT(r.level_occupancy[4], 0.9);
  EXPECT_LT(r.active_boxes, 4096u + 512 + 64 + 8 + 1);
}

TEST(SparseSolveTest, ForcedSparseMatchesDenseUniform) {
  const ParticleSet p = make_uniform(2500, Box3{}, 13);
  core::FmmSolver dense(sparse_config(core::HierarchyMode::kDense, 3));
  core::FmmSolver sparse(sparse_config(core::HierarchyMode::kSparse, 3));
  const core::FmmResult rd = dense.solve(p);
  const core::FmmResult rs = sparse.solve(p);
  EXPECT_TRUE(rs.sparse);
  expect_close(rd, rs, 1e-11);
}

TEST(SparseSolveTest, SparseMatchesDenseOnClustered) {
  for (const std::uint64_t seed : {21u, 22u}) {
    const ParticleSet p = seed == 21u ? make_plummer(3000, Box3{}, seed)
                                      : make_two_clusters(3000, Box3{}, seed);
    core::FmmSolver dense(sparse_config(core::HierarchyMode::kDense, 4));
    core::FmmSolver sparse(sparse_config(core::HierarchyMode::kSparse, 4));
    const core::FmmResult rd = dense.solve(p);
    const core::FmmResult rs = sparse.solve(p);
    EXPECT_TRUE(rs.sparse);
    EXPECT_LT(rs.active_boxes, rd.active_boxes);
    EXPECT_LT(rs.workspace_bytes, rd.workspace_bytes);
    expect_close(rd, rs, 1e-11);
  }
}

TEST(SparseSolveTest, AlmostAllParticlesInOneLeaf) {
  // Everything except two corner anchors sits inside one depth-3 leaf
  // (the solver's root cube comes from the particle bounds, so the anchors
  // pin the domain to the unit box). Three occupied leaves — the extreme
  // clustering edge case: nearly every level is almost empty.
  const ParticleSet cluster =
      make_uniform(300, Box3{{0.50, 0.50, 0.50}, {0.56, 0.56, 0.56}}, 14);
  ParticleSet p(302);
  for (std::size_t i = 0; i < 300; ++i)
    p.set(i, cluster.position(i), cluster.charge(i));
  p.set(300, {0.0, 0.0, 0.0}, 1.0);
  p.set(301, {1.0, 1.0, 1.0}, 1.0);
  core::FmmConfig cfg = sparse_config(core::HierarchyMode::kSparse, 3);
  core::FmmSolver sparse(cfg);
  const core::FmmResult rs = sparse.solve(p);
  EXPECT_TRUE(rs.sparse);
  // At most 3 active boxes per level (cluster leaf may straddle at most a
  // couple of leaves; the anchors add one each), far below the dense 585.
  EXPECT_LE(rs.active_boxes, 4u * 3u);
  cfg.hierarchy = core::HierarchyMode::kDense;
  core::FmmSolver dense(cfg);
  expect_close(dense.solve(p), rs, 1e-11);
}

TEST(SparseSolveTest, WarmSparseSolveBitwiseAndZeroGrowth) {
  const ParticleSet p = make_plummer(2500, Box3{}, 15);
  core::FmmSolver solver(sparse_config(core::HierarchyMode::kSparse, 4));
  const core::FmmResult cold = solver.solve(p);
  const core::FmmResult warm = solver.solve(p);
  EXPECT_TRUE(bitwise_equal(cold.phi, warm.phi));
  EXPECT_EQ(warm.workspace_allocs, 0u);
  // A fresh solver reproduces the same bits — chunk splits depend only on
  // the cost model, never on scheduling.
  core::FmmSolver fresh(sparse_config(core::HierarchyMode::kSparse, 4));
  EXPECT_TRUE(bitwise_equal(cold.phi, fresh.solve(p).phi));
}

TEST(SparseSolveTest, SequentialAndThreadedSparseAgreeBitwise) {
  // The near-field split depends on the problem only, so one worker and
  // the whole pool give the same bits on both uniform-leaf executors.
  const ParticleSet p = make_plummer(2000, Box3{}, 16);
  for (const core::HierarchyMode mode :
       {core::HierarchyMode::kDense, core::HierarchyMode::kSparse}) {
    SCOPED_TRACE(mode == core::HierarchyMode::kDense ? "dense" : "sparse");
    core::FmmConfig cfg = sparse_config(mode, 4);
    cfg.mode = core::ExecutionMode::kSequential;
    core::FmmSolver seq(cfg);
    cfg.mode = core::ExecutionMode::kThreads;
    core::FmmSolver thr(cfg);
    const core::FmmResult rs = seq.solve(p);
    const core::FmmResult rt = thr.solve(p);
    EXPECT_TRUE(bitwise_equal(rs.phi, rt.phi));
    EXPECT_TRUE(bitwise_equal(rs.grad, rt.grad));
  }
}

TEST(SparseSolveTest, DataParallelMaskedBitwiseMatchesDense) {
  // The DP executor keeps its dense compute loops; the mask only skips
  // multigrid moves of all-zero inactive sections — results must be
  // bitwise identical while counted communication drops.
  const ParticleSet p = make_plummer(1500, Box3{}, 17);
  core::FmmConfig cfg = sparse_config(core::HierarchyMode::kDense, 3);
  cfg.mode = core::ExecutionMode::kDataParallel;
  cfg.machine = {2, 2, 2};
  core::FmmSolver dense(cfg);
  cfg.hierarchy = core::HierarchyMode::kSparse;
  core::FmmSolver masked(cfg);
  const core::FmmResult rd = dense.solve(p);
  const core::FmmResult rm = masked.solve(p);
  EXPECT_TRUE(rm.sparse);
  EXPECT_TRUE(bitwise_equal(rd.phi, rm.phi));
  // With the default kLocalCopy embedding every VU-aligned level moves
  // locally, so the mask's savings land in local bytes; off-VU traffic
  // (halo exchange, sort) is unchanged.
  EXPECT_LT(rm.comm.local_bytes, rd.comm.local_bytes);
  EXPECT_LE(rm.comm.off_vu_bytes, rd.comm.off_vu_bytes);
}

// ------------------------------------------------ adaptive refinement (§15)

TEST(AdaptiveSolveTest, MatchesDirectOnClusteredWithFewerNearPairs) {
  // Large enough that the occupancy rule picks a real uniform leaf level
  // (depth 3 at ~12 bodies/leaf) rather than degenerating to near-direct.
  const ParticleSet p = make_plummer(6000, Box3{}, 19);
  const baseline::DirectResult d = baseline::direct_all(p, true);
  core::FmmConfig cfg = sparse_config(core::HierarchyMode::kSparse, -1);
  core::FmmSolver sparse(cfg);
  cfg.hierarchy = core::HierarchyMode::kAdaptive;
  core::FmmSolver adaptive(cfg);
  const core::FmmResult rs = sparse.solve(p);
  const core::FmmResult ra = adaptive.solve(p);
  EXPECT_TRUE(ra.adaptive);
  EXPECT_GT(ra.ncrit, 0);
  EXPECT_GT(ra.front_leaves, 0u);
  const ErrorNorms es = compare_fields(rs.phi, d.phi);
  const ErrorNorms ea = compare_fields(ra.phi, d.phi);
  // Both solves meet the same solver-tolerance bound (k = 12)...
  EXPECT_LT(es.rms_rel, 1e-3);
  EXPECT_LT(ea.rms_rel, 1e-3);
  const ErrorNorms eg = compare_fields(std::span<const Vec3>(ra.grad),
                                       std::span<const Vec3>(d.grad));
  EXPECT_LT(eg.rms_rel, 1e-2);
  // ...but the adaptive front refines the Plummer core past the uniform
  // leaf level, cutting the O(n_leaf^2) P2P pair count.
  const auto& na = ra.breakdown.phases().at("near");
  const auto& ns = rs.breakdown.phases().at("near");
  EXPECT_GT(ns.pairs, 0u);
  EXPECT_LT(na.pairs, ns.pairs);
}

TEST(AdaptiveSolveTest, ModeledSecondsIsTheFrontCost) {
  // The solver reports the cost model's time for the front it ran; the
  // tree API on the same sorted input gives the same front and cost.
  const ParticleSet p = make_plummer(6000, Box3{}, 19);
  const core::FmmConfig cfg =
      sparse_config(core::HierarchyMode::kAdaptive, -1);
  core::FmmSolver solver(cfg);
  const core::FmmResult r = solver.solve(p);
  ASSERT_GT(r.ncrit, 0);

  const int depth = core::depth_for(cfg, p.size());
  const tree::Hierarchy hier(tree::cube_containing(p.bounds()), depth);
  const dp::BlockLayout layout(hier.boxes_per_side(depth), {1, 1, 1});
  dp::BoxedParticles boxed;
  dp::coordinate_sort(p, hier, layout, boxed);
  std::vector<std::uint32_t> occupied;
  for (std::size_t rank = 0; rank + 1 < boxed.box_begin.size(); ++rank)
    if (boxed.count_in_rank(rank) > 0)
      occupied.push_back(boxed.rank_to_flat[rank]);
  tree::ActiveLevels act;
  tree::build_active_levels(hier, occupied, act);
  const tree::LevelActiveSet& fine = act.levels[static_cast<std::size_t>(depth)];
  std::vector<std::uint32_t> leaf_counts(fine.count());
  for (std::size_t a = 0; a < fine.count(); ++a)
    leaf_counts[a] = boxed.count_in_rank(boxed.flat_to_rank[fine.boxes[a]]);
  std::vector<std::vector<std::uint32_t>> counts;
  tree::build_subtree_counts(hier, act, leaf_counts, counts);
  const std::vector<tree::Offset> near = tree::near_field_offsets(2);
  const std::vector<tree::Offset> near_half = tree::near_field_half_offsets(2);
  tree::RefinementCostParams params;
  params.k = cfg.params.k();
  params.supernodes = cfg.supernodes;
  params.gradient = cfg.with_gradient;
  tree::LeafFront front;
  tree::build_leaf_front(hier, act, counts, r.ncrit, 2, near, front);
  const tree::RefinementCost cost =
      tree::front_cost(hier, act, counts, front, near, near_half, params);
  EXPECT_EQ(r.front_leaves, front.leaves());
  EXPECT_GT(r.modeled_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.modeled_seconds, cost.seconds);
}

TEST(AdaptiveSolveTest, UniformInputMatchesDirect) {
  // A uniform input must not regress: the front collapses to (nearly) one
  // level and accuracy stays at solver tolerance.
  const ParticleSet p = make_uniform(2000, Box3{}, 23);
  core::FmmConfig cfg = sparse_config(core::HierarchyMode::kAdaptive, -1);
  core::FmmSolver solver(cfg);
  const core::FmmResult r = solver.solve(p);
  EXPECT_TRUE(r.adaptive);
  const baseline::DirectResult d = baseline::direct_all(p, false);
  EXPECT_LT(compare_fields(r.phi, d.phi).rms_rel, 1e-3);
}

TEST(AdaptiveSolveTest, HonorsExplicitNcrit) {
  const ParticleSet p = make_plummer(1500, Box3{}, 24);
  core::FmmConfig cfg = sparse_config(core::HierarchyMode::kAdaptive, -1);
  cfg.ncrit = 48;
  core::FmmSolver solver(cfg);
  const core::FmmResult r = solver.solve(p);
  EXPECT_EQ(r.ncrit, 48);
  // Every front leaf obeys the threshold: leaves cover all bodies, and
  // the canonical count matches what the solver reports.
  EXPECT_GT(r.front_leaves, 0u);
  EXPECT_LE(r.front_leaves, r.active_boxes);
}

TEST(AdaptiveSolveTest, WarmSolveBitwiseAndZeroGrowth) {
  const ParticleSet p = make_plummer(2500, Box3{}, 25);
  core::FmmSolver solver(sparse_config(core::HierarchyMode::kAdaptive, -1));
  const core::FmmResult cold = solver.solve(p);
  const core::FmmResult warm = solver.solve(p);
  EXPECT_TRUE(bitwise_equal(cold.phi, warm.phi));
  EXPECT_EQ(warm.workspace_allocs, 0u);
  // A fresh solver reproduces the same bits — the front, the leaf ranges and
  // the U-list order depend only on the input, never on scheduling.
  core::FmmSolver fresh(sparse_config(core::HierarchyMode::kAdaptive, -1));
  EXPECT_TRUE(bitwise_equal(cold.phi, fresh.solve(p).phi));
}

TEST(AdaptiveSolveTest, SequentialAndThreadedAgreeBitwise) {
  const ParticleSet p = make_plummer(2000, Box3{}, 26);
  core::FmmConfig cfg = sparse_config(core::HierarchyMode::kAdaptive, -1);
  cfg.mode = core::ExecutionMode::kSequential;
  core::FmmSolver seq(cfg);
  cfg.mode = core::ExecutionMode::kThreads;
  core::FmmSolver thr(cfg);
  const core::FmmResult rs = seq.solve(p);
  const core::FmmResult rt = thr.solve(p);
  EXPECT_TRUE(bitwise_equal(rs.phi, rt.phi));
  ASSERT_EQ(rs.grad.size(), rt.grad.size());
  for (std::size_t i = 0; i < rs.grad.size(); ++i) {
    EXPECT_EQ(rs.grad[i].x, rt.grad[i].x);
    EXPECT_EQ(rs.grad[i].y, rt.grad[i].y);
    EXPECT_EQ(rs.grad[i].z, rt.grad[i].z);
  }
}

TEST(AdaptiveSolveTest, SingleLevelFrontMatchesDense) {
  // Uniform N=20000 puts dense's automatic depth at 3 (~39 bodies per
  // leaf). With ncrit=80 every level-3 box holds at most ncrit bodies and
  // every level-2 box more, so the adaptive front is exactly level 3 of its
  // deeper sort: one coarse range per leaf, dense's pairs, dense's answer.
  const ParticleSet p = make_uniform(20000, Box3{}, 41);
  core::FmmConfig cfg = sparse_config(core::HierarchyMode::kDense, -1);
  core::FmmSolver dense(cfg);
  cfg.hierarchy = core::HierarchyMode::kAdaptive;
  cfg.ncrit = 80;
  core::FmmSolver adaptive(cfg);
  const core::FmmResult rd = dense.solve(p);
  const core::FmmResult ra = adaptive.solve(p);
  ASSERT_EQ(rd.depth, 3);
  EXPECT_GT(ra.depth, 3);
  EXPECT_EQ(ra.front_leaves, rd.leaf_boxes);
  EXPECT_EQ(ra.breakdown.phases().at("near").pairs,
            rd.breakdown.phases().at("near").pairs);
  EXPECT_LE(compare_fields(ra.phi, rd.phi).rms_rel, 1e-10);
  EXPECT_LE(compare_fields(std::span<const Vec3>(ra.grad),
                           std::span<const Vec3>(rd.grad))
                .rms_rel,
            1e-10);
}

TEST(AdaptiveSolveTest, BreakdownReportsActiveBoxesAndPairs) {
  const ParticleSet p = make_plummer(2000, Box3{}, 27);
  core::FmmSolver solver(sparse_config(core::HierarchyMode::kAdaptive, -1));
  const core::FmmResult r = solver.solve(p);
  const auto& phases = r.breakdown.phases();
  for (const char* name : {"p2m", "l2p", "near", "interactive"}) {
    const auto& ph = phases.at(name);
    EXPECT_GT(ph.boxes_active, 0u) << name;
    EXPECT_GT(ph.boxes_total, 0u) << name;
    EXPECT_LE(ph.boxes_active, ph.boxes_total) << name;
  }
  EXPECT_GT(phases.at("near").pairs, 0u);
  EXPECT_FALSE(r.level_occupancy.empty());
}

TEST(SparseSolveTest, NearFieldCostImbalanceReported) {
  const ParticleSet p = make_plummer(3000, Box3{}, 18);
  core::FmmSolver solver(sparse_config(core::HierarchyMode::kSparse, 4));
  const core::FmmResult r = solver.solve(p);
  const auto& near = r.breakdown.phases().at("near");
  EXPECT_GE(near.cost_imbalance, 1.0);
  EXPECT_GT(near.boxes_total, near.boxes_active);
  const auto& active = r.breakdown.phases().at("active");
  EXPECT_GT(active.boxes_total, 0u);
}

// ------------------------------------------------------ near-field footprint

// Warm solves hold packed near-field write windows, not one N-length
// buffer per near chunk. The bound is the window model plus the rest of
// the workspace:
//   * per particle: sorted x, y, z, q, perm and box_of, sorted phi and
//     gradient — 72 B;
//   * windows: on the uniform depth-3 tree (8^3 leaves, lexicographic half
//     list, kNearChunks = 16 Morton chunks of equal leaf count) the chunks
//     write 4.48 N particles in all, 32 B each (phi + gradient); 1.5x slack
//     covers the cost-weighted split and the random occupancy;
//   * tree-sized buffers (level stores, padded grid, active sets; for the
//     adaptive executor also the depth-6 refinement maps and the ncrit
//     ladder's fronts): 1 MB, 8 MB adaptive.
// At N = 20000 that is 6.7 MB (adaptive 13.7 MB). Measured: 5.8 / 5.3 /
// 11.3 MB (dense / sparse / adaptive); with the N-length layout, which
// adds 16 x 32 B x N = 10.2 MB, 12.4 / 11.9 / 17.9 MB.
TEST(NearWindowFootprint, WarmSolvesStayWithinWindowModel) {
  static_assert(core::kNearChunks == 16,
                "the window model below is for 16 near chunks");
  constexpr std::size_t n = 20000;
  const ParticleSet p = make_uniform(n, Box3{}, 7);
  for (const core::HierarchyMode hm :
       {core::HierarchyMode::kDense, core::HierarchyMode::kSparse,
        core::HierarchyMode::kAdaptive}) {
    for (const core::ExecutionMode mode :
         {core::ExecutionMode::kSequential, core::ExecutionMode::kThreads}) {
      SCOPED_TRACE(::testing::Message() << core::to_string(hm) << " "
                                        << core::to_string(mode));
      core::FmmConfig cfg;
      cfg.hierarchy = hm;
      cfg.mode = mode;
      cfg.with_gradient = true;
      core::FmmSolver solver(cfg);
      (void)solver.solve(p);
      const core::FmmResult warm = solver.solve(p);
      EXPECT_EQ(warm.workspace_allocs, 0u);
      const bool adaptive = hm == core::HierarchyMode::kAdaptive;
      if (!adaptive) {
        EXPECT_EQ(warm.depth, 3);
      }
      const double bound = 72.0 * n + 1.5 * 4.48 * 32.0 * n +
                           (adaptive ? 8e6 : 1e6);
      EXPECT_LT(static_cast<double>(warm.workspace_bytes), bound);
    }
  }
}

// ------------------------------------------------------- accuracy envelope

// Every executor against direct summation, at fixed seeds, K = 12, Laplace,
// with the gradient; the adaptive executor also at K = 72 (D=14 with the
// McLaren rule), where the cost model picks a coarser front. Unlike the
// bitwise suites above, this gates changes to summation order or pair
// coverage.
//
// Each cell has its own bound: twice the rms relative potential error and
// twice the rms of the per-target relative gradient errors measured before
// the near field moved to packed write windows (Release, AVX2 kernels).
// Reordering a sum moves these errors by rounding only, far inside the
// factor 2; dropping one near chunk's window, or one leaf pair, moves them
// by orders of magnitude. The blanket rule this replaces (Table 2's
// D=5/K=12 2.2e-4 plus one digit, 2.2e-3, and 2.2e-2 for the gradient)
// sat 7-30x above the measured cells. One exception: the K = 72 Plummer
// gradient keeps its earlier, tighter 1e-4.
//
//   cell                   measured phi  measured grad  phi bound  grad bound
//   */uniform (K = 12)     2.1023e-4     5.6759e-3      4.2e-4     1.14e-2
//   dense, sparse, dp,
//   dist4 plummer          6.9485e-5     5.0204e-3      1.39e-4    1.01e-2
//   adaptive_plummer       2.5844e-4     1.0982e-2      5.17e-4    2.2e-2
//   adaptive_k72_uniform   3.5046e-7     1.9391e-5      7.01e-7    3.88e-5
//   adaptive_k72_plummer   7.8809e-7     6.0280e-5      1.58e-6    1e-4
//
// (On the uniform input all five executors measure the same K = 12 errors
// to five digits.)
enum class Executor { kDense, kSparse, kAdaptive, kDataParallel, kDist4 };

struct EnvelopeCase {
  Executor exec;
  bool plummer;
  bool k72 = false;
  double phi_bound = 0.0;
  double grad_bound = 0.0;
};

std::string envelope_label(const EnvelopeCase& c) {
  static const char* const names[] = {"dense", "sparse", "adaptive", "dp",
                                      "dist4"};
  return std::string(names[static_cast<int>(c.exec)]) +
         (c.k72 ? "_k72" : "") + (c.plummer ? "_plummer" : "_uniform");
}

// gtest would print the raw bytes of the parameter, padding included, into
// the test names; the label keeps them stable across builds.
void PrintTo(const EnvelopeCase& c, std::ostream* os) {
  *os << envelope_label(c);
}

class AccuracyEnvelope : public ::testing::TestWithParam<EnvelopeCase> {};

TEST_P(AccuracyEnvelope, RmsErrorWithinTable2Bound) {
  const EnvelopeCase c = GetParam();
  const ParticleSet p = c.plummer ? make_plummer(8000, Box3{}, 51)
                                  : make_uniform(8000, Box3{}, 52);
  core::FmmConfig cfg;
  cfg.with_gradient = true;
  if (c.k72) cfg.params = anderson::params_d14_k72();
  switch (c.exec) {
    case Executor::kDense: cfg.hierarchy = core::HierarchyMode::kDense; break;
    case Executor::kSparse: cfg.hierarchy = core::HierarchyMode::kSparse; break;
    case Executor::kAdaptive:
      cfg.hierarchy = core::HierarchyMode::kAdaptive;
      break;
    case Executor::kDataParallel:
      cfg.mode = core::ExecutionMode::kDataParallel;
      break;
    case Executor::kDist4:
      cfg.mode = core::ExecutionMode::kDistributed;
      cfg.dist_ranks = 4;
      break;
  }
  core::FmmSolver solver(cfg);
  const core::FmmResult r = solver.solve(p);
  const baseline::DirectResult d = baseline::direct_all(p, true);
  EXPECT_LE(compare_fields(r.phi, d.phi).rms_rel, c.phi_bound);
  ASSERT_EQ(r.grad.size(), d.grad.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < d.grad.size(); ++i)
    sum += (r.grad[i] - d.grad[i]).norm2() / d.grad[i].norm2();
  EXPECT_LE(std::sqrt(sum / static_cast<double>(d.grad.size())),
            c.grad_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, AccuracyEnvelope,
    ::testing::Values(
        EnvelopeCase{Executor::kDense, false, false, 4.2e-4, 1.14e-2},
        EnvelopeCase{Executor::kDense, true, false, 1.39e-4, 1.01e-2},
        EnvelopeCase{Executor::kSparse, false, false, 4.2e-4, 1.14e-2},
        EnvelopeCase{Executor::kSparse, true, false, 1.39e-4, 1.01e-2},
        EnvelopeCase{Executor::kAdaptive, false, false, 4.2e-4, 1.14e-2},
        EnvelopeCase{Executor::kAdaptive, true, false, 5.17e-4, 2.2e-2},
        EnvelopeCase{Executor::kDataParallel, false, false, 4.2e-4, 1.14e-2},
        EnvelopeCase{Executor::kDataParallel, true, false, 1.39e-4, 1.01e-2},
        EnvelopeCase{Executor::kDist4, false, false, 4.2e-4, 1.14e-2},
        EnvelopeCase{Executor::kDist4, true, false, 1.39e-4, 1.01e-2},
        EnvelopeCase{Executor::kAdaptive, false, true, 7.01e-7, 3.88e-5},
        EnvelopeCase{Executor::kAdaptive, true, true, 1.58e-6, 1e-4}),
    [](const ::testing::TestParamInfo<EnvelopeCase>& i) {
      return envelope_label(i.param);
    });

}  // namespace
}  // namespace hfmm
