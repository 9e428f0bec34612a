#pragma once
// Active-set translation chunk bodies shared by the sparse executor
// (solver_sparse.cpp — one uniform leaf level over full-depth active sets)
// and the adaptive executor (solver_adaptive.cpp — the pruned leaf-front
// tree, DESIGN.md Section 15), plus the uniform-leaf P2M/L2P bodies the
// dense executor uses too. The arithmetic is identical in both active-set
// executors: every stage iterates ACTIVE indices of the supplied level
// sets and applies the same fixed offset order as the dense path, so
// results stay bitwise-reproducible regardless of scheduling.
//
// The only adaptive-specific branch is in supernode_chunk: a parent-level
// source that is a FRONT LEAF is skipped, because every particle pair
// between a leaf's subtree and the boxes it is near is evaluated DIRECTLY
// by the U list (the leaf is, by construction, inside the d-neighborhood of
// the target's parent — never separated at any deeper level). Applying its
// supernode translation as well would double-count those pairs. The sparse
// executor passes no leaf flags and keeps its exact historical behavior.

#include <cstdint>
#include <utility>

#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/active_set.hpp"
#include "pipeline.hpp"
#include "solver_internal.hpp"

namespace hfmm::core::internal {

struct ActiveContext {
  const FmmConfig& config;
  const FmmPlan& plan;
  const tree::Hierarchy& hier;
  SolveWorkspace& ws;
  const tree::ActiveLevels& act;
  /// Per level, per active index of `act`: 1 when the box is a front leaf
  /// (adaptive executor); null on the sparse path.
  const std::vector<std::vector<std::uint8_t>>* leaf_flags = nullptr;

  const TranslationData& trans() const { return *plan.trans; }
};

// The sorted particle range [first, second) of leaf box `flat`.
inline std::pair<std::uint32_t, std::uint32_t> leaf_range(
    const dp::BoxedParticles& boxed, std::size_t flat) {
  const std::uint32_t r = boxed.flat_to_rank[flat];
  return {boxed.box_begin[r], boxed.box_begin[r + 1]};
}

inline std::uint64_t particles_in(const dp::BoxedParticles& boxed,
                                  std::size_t flat) {
  const auto [b, e] = leaf_range(boxed, flat);
  return e - b;
}

// P2M of one box of level l (flat index f) whose sorted particles are
// [b, e): the outer approximation at the box's own level and sphere radius,
// written to row `row` of far[l]. Returns the flop count. The uniform-leaf
// stages (p2m_leaves) and the adaptive front-leaf stage share it.
inline std::uint64_t p2m_box(const FmmConfig& config,
                             const tree::Hierarchy& hier, SolveWorkspace& ws,
                             int l, std::size_t f, std::size_t row,
                             std::uint32_t b, std::uint32_t e) {
  if (b == e) return 0;
  const std::size_t k = config.params.k();
  const double a = config.params.outer_ratio * hier.side_at(l);
  const ParticleSet& p = ws.boxed.sorted;
  anderson::p2m(config.params, a, hier.center(l, hier.coord_of(l, f)),
                p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                p.z().subspan(b, e - b), p.q().subspan(b, e - b),
                {ws.far[l].data() + row * k, k});
  return anderson::p2m_flops(k, e - b);
}

// L2P of one box, indexed like p2m_box: the local expansion at row `row` of
// local[l] evaluated at the particles [b, e), with the gradient when the
// solve computes one.
inline std::uint64_t l2p_box(const FmmConfig& config,
                             const tree::Hierarchy& hier, SolveWorkspace& ws,
                             int l, std::size_t f, std::size_t row,
                             std::uint32_t b, std::uint32_t e) {
  if (b == e) return 0;
  const std::size_t k = config.params.k();
  const double a = config.params.inner_ratio * hier.side_at(l);
  const Vec3 center = hier.center(l, hier.coord_of(l, f));
  const ParticleSet& p = ws.boxed.sorted;
  const std::span<const double> g{ws.local[l].data() + row * k, k};
  const std::span<double> phi = std::span<double>{ws.phi_sorted}.subspan(
      b, e - b);
  if (ws.grad_sorted.empty()) {
    anderson::l2p(config.params, a, center, g, p.x().subspan(b, e - b),
                  p.y().subspan(b, e - b), p.z().subspan(b, e - b), phi);
  } else {
    anderson::l2p_gradient(config.params, a, center, g,
                           p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                           p.z().subspan(b, e - b), phi,
                           std::span<Vec3>{ws.grad_sorted}.subspan(b, e - b));
  }
  return anderson::l2p_flops(k, e - b, config.params.truncation);
}

// Leaf P2M over items [lo, hi) of the leaf level: item i is the leaf box
// flats[i] — or box i itself when `flats` is empty (the dense executor) —
// and writes its outer approximation at row i of far[h]; empty boxes are
// skipped. Shared by the dense, sparse and distributed executors — the
// distributed ranks pass a workspace holding a rank-local particle view,
// and the arithmetic is identical because every lookup goes through that
// workspace's own boxed maps.
inline void p2m_leaves(const FmmConfig& config, const tree::Hierarchy& hier,
                       SolveWorkspace& ws,
                       std::span<const std::uint32_t> flats, std::size_t lo,
                       std::size_t hi, PhaseStats& stats) {
  const int h = hier.depth();
  std::uint64_t local_flops = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t f = flats.empty() ? i : flats[i];
    const auto [b, e] = leaf_range(ws.boxed, f);
    local_flops += p2m_box(config, hier, ws, h, f, i, b, e);
  }
  stats.flops += local_flops;
}

// Leaf L2P over items [lo, hi), indexed like p2m_leaves.
inline void l2p_leaves(const FmmConfig& config, const tree::Hierarchy& hier,
                       SolveWorkspace& ws,
                       std::span<const std::uint32_t> flats, std::size_t lo,
                       std::size_t hi, PhaseStats& stats) {
  const int h = hier.depth();
  std::uint64_t local_flops = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t f = flats.empty() ? i : flats[i];
    const auto [b, e] = leaf_range(ws.boxed, f);
    local_flops += l2p_box(config, hier, ws, h, f, i, b, e);
  }
  stats.flops += local_flops;
}

// Upward T1 over active PARENTS [lo, hi) of level l: each parent gathers
// its active children (octant order 0..7 — the dense accumulation order)
// through the dense->active map of level l + 1. Children absent from the
// set (inactive, or pruned under a front leaf) hold an exactly-zero or
// P2M-written far field, so skipping them changes nothing.
inline void upward_chunk(ActiveContext& ctx, int l, std::size_t lo,
                         std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const tree::LevelActiveSet& parents = ctx.act.levels[l];
  const tree::LevelActiveSet& children = ctx.act.levels[l + 1];
  const double* child = ctx.ws.far[l + 1].data();
  double* parent = ctx.ws.far[l].data();
  std::uint64_t local_flops = 0;
  for (std::size_t pi = lo; pi < hi; ++pi) {
    const tree::BoxCoord pc = ctx.hier.coord_of(l, parents.boxes[pi]);
    double* dst = parent + pi * k;
    for (int o = 0; o < 8; ++o) {
      const tree::BoxCoord cc = tree::Hierarchy::child_of(pc, o);
      const std::int32_t ca =
          children.dense_to_active[ctx.hier.flat_index(l + 1, cc)];
      if (ca < 0) continue;
      blas::gemv(ctx.trans().t1[o].t, k,
                 child + static_cast<std::size_t>(ca) * k, dst, k, k, true);
      local_flops += blas::gemm_flops(1, k, k);
    }
  }
  stats.flops += local_flops;
}

// Downward T3 over active CHILDREN [lo, hi) of level l (l > 2): the parent
// of an active box is always active (parent closure), so the lookup cannot
// miss.
inline void downward_chunk(ActiveContext& ctx, int l, std::size_t lo,
                           std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const tree::LevelActiveSet& children = ctx.act.levels[l];
  const tree::LevelActiveSet& parents = ctx.act.levels[l - 1];
  const double* parent = ctx.ws.local[l - 1].data();
  double* child = ctx.ws.local[l].data();
  std::uint64_t local_flops = 0;
  for (std::size_t ci = lo; ci < hi; ++ci) {
    const tree::BoxCoord c = ctx.hier.coord_of(l, children.boxes[ci]);
    const int o = tree::Hierarchy::octant_of(c);
    const std::int32_t pa = parents.dense_to_active[ctx.hier.flat_index(
        l - 1, tree::Hierarchy::parent_of(c))];
    blas::gemv(ctx.trans().t3[o].t, k,
               parent + static_cast<std::size_t>(pa) * k, child + ci * k, k, k,
               true);
    local_flops += blas::gemm_flops(1, k, k);
  }
  stats.flops += local_flops;
}

// Non-supernode T2 over active TARGETS [lo, hi) of level l: the union
// offset list with per-axis target-parity admissibility, explicit bounds
// checks replacing the dense path's zero-padded grid, and active lookups
// replacing its implicit zero sources.
inline void interactive_chunk(ActiveContext& ctx, int l, std::size_t lo,
                              std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const int d = ctx.config.separation;
  const std::int32_t n = ctx.hier.boxes_per_side(l);
  const tree::LevelActiveSet& act = ctx.act.levels[l];
  const double* far = ctx.ws.far[l].data();
  double* local = ctx.ws.local[l].data();
  std::uint64_t local_flops = 0;
  for (std::size_t ti = lo; ti < hi; ++ti) {
    const tree::BoxCoord c = ctx.hier.coord_of(l, act.boxes[ti]);
    double* dst = local + ti * k;
    for (const UnionOffset& u : ctx.trans().union_offsets) {
      if (!u.all_parities) {
        if (!(u.valid_parity[0] & (1 << (c.ix & 1)))) continue;
        if (!(u.valid_parity[1] & (1 << (c.iy & 1)))) continue;
        if (!(u.valid_parity[2] & (1 << (c.iz & 1)))) continue;
      }
      const tree::BoxCoord s{c.ix + u.o.dx, c.iy + u.o.dy, c.iz + u.o.dz};
      if (s.ix < 0 || s.ix >= n || s.iy < 0 || s.iy >= n || s.iz < 0 ||
          s.iz >= n)
        continue;
      const std::int32_t sa = act.dense_to_active[ctx.hier.flat_index(l, s)];
      if (sa < 0) continue;
      blas::gemv(ctx.trans().t2[tree::offset_cube_index(u.o, d)].t, k,
                 far + static_cast<std::size_t>(sa) * k, dst, k, k, true);
      local_flops += blas::gemm_flops(1, k, k);
    }
  }
  stats.flops += local_flops;
}

// Supernode T2 over active TARGETS [lo, hi) of level l: the precomputed
// gather plan's rectangles already encode source-in-bounds per (octant,
// entry) — a target only needs its parent coordinate inside the rectangle
// plus an active lookup on the source. Parent-level sources that are front
// leaves are suppressed (see the header comment).
inline void supernode_chunk(ActiveContext& ctx, int l, std::size_t lo,
                            std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const tree::LevelActiveSet& act = ctx.act.levels[l];
  const tree::LevelActiveSet& act_parent = ctx.act.levels[l - 1];
  const SupernodeLevelPlan& plan = ctx.plan.supernode_plans[l];
  const std::vector<std::uint8_t>* parent_leaf =
      ctx.leaf_flags != nullptr ? &(*ctx.leaf_flags)[l - 1] : nullptr;
  const double* far = ctx.ws.far[l].data();
  const double* far_parent = ctx.ws.far[l - 1].data();
  double* local = ctx.ws.local[l].data();
  std::uint64_t local_flops = 0;
  for (std::size_t ti = lo; ti < hi; ++ti) {
    const tree::BoxCoord c = ctx.hier.coord_of(l, act.boxes[ti]);
    const int octant = tree::Hierarchy::octant_of(c);
    const tree::BoxCoord p = tree::Hierarchy::parent_of(c);
    double* dst = local + ti * k;
    for (const SupernodePlanEntry& pe : plan.per_octant[octant]) {
      if (p.ix < pe.lo[0] || p.ix >= pe.hi[0] || p.iy < pe.lo[1] ||
          p.iy >= pe.hi[1] || p.iz < pe.lo[2] || p.iz >= pe.hi[2])
        continue;
      const double* src;
      if (pe.parent_source) {
        const tree::BoxCoord s{p.ix + pe.offset.dx, p.iy + pe.offset.dy,
                               p.iz + pe.offset.dz};
        const std::int32_t sa =
            act_parent.dense_to_active[ctx.hier.flat_index(l - 1, s)];
        if (sa < 0) continue;
        if (parent_leaf != nullptr &&
            (*parent_leaf)[static_cast<std::size_t>(sa)] != 0)
          continue;  // front leaf: its pairs are on the U list
        src = far_parent + static_cast<std::size_t>(sa) * k;
      } else {
        const tree::BoxCoord s{c.ix + pe.offset.dx, c.iy + pe.offset.dy,
                               c.iz + pe.offset.dz};
        const std::int32_t sa =
            act.dense_to_active[ctx.hier.flat_index(l, s)];
        if (sa < 0) continue;
        src = far + static_cast<std::size_t>(sa) * k;
      }
      blas::gemv(pe.matrix->t, k, src, dst, k, k, true);
      local_flops += blas::gemm_flops(1, k, k);
    }
  }
  stats.flops += local_flops;
}

// Per-level translation stages of an active-set executor: the stage of
// level l iterates the active indices of ctx.act.levels[l], which are also
// the boxes the phase reports as visited.
inline void set_active_level_stages(ActiveContext& ctx, PipelineStages& st) {
  const auto count = [&ctx](int l) { return ctx.act.levels[l].count(); };
  st.upward = {count, [&ctx](int l, std::size_t, std::size_t lo,
                             std::size_t hi, PhaseStats& s) {
                 upward_chunk(ctx, l, lo, hi, s);
               }};
  st.downward = {count, [&ctx](int l, std::size_t, std::size_t lo,
                               std::size_t hi, PhaseStats& s) {
                   downward_chunk(ctx, l, lo, hi, s);
                 }};
  st.interactive = {count, [&ctx](int l, std::size_t, std::size_t lo,
                                  std::size_t hi, PhaseStats& s) {
                      if (ctx.config.supernodes)
                        supernode_chunk(ctx, l, lo, hi, s);
                      else
                        interactive_chunk(ctx, l, lo, hi, s);
                    }};
  st.level_boxes = count;
}

// Near stage of the uniform-leaf executors (dense and sparse): the occupied
// leaves in sort-rank (Morton) order, so each chunk is a spatially compact
// run of leaves with a compact write window, split by their pair counts
// (ws.near_cost, from update_active_costs, in the same order).
inline void set_active_near_stage(ActiveContext& ctx, const NearKernel& kern,
                                  PipelineStages& st) {
  const std::span<const tree::Offset> offsets =
      ctx.plan.near_list(ctx.config.near_symmetry);
  const std::span<const std::uint32_t> leaves{ctx.ws.occupied};
  st.near_cost = ctx.ws.near_cost;
  st.near = [&ctx, &kern, offsets, leaves](NearFieldScratch::Chunk& ch,
                                           std::size_t lo, std::size_t hi) {
    return near_field_chunk(ctx.hier, ctx.ws.boxed, offsets,
                            ctx.config.near_symmetry, ctx.config.with_gradient,
                            ch, leaves.subspan(lo, hi - lo), kern);
  };
}

}  // namespace hfmm::core::internal
