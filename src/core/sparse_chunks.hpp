#pragma once
// Active-set stage bodies of the shared-memory executors: the uniform-leaf
// executor (solver_sparse.cpp — one leaf level over full-depth active sets,
// serving every kDense, kSparse and kAuto request), the adaptive executor
// (solver_adaptive.cpp — the pruned leaf-front tree, DESIGN.md Section 15)
// and the ranks of the distributed executor (solver_dist.cpp). Every stage
// iterates ACTIVE indices of the supplied level sets and applies its
// matrices in a fixed order per target; the translation stages batch the
// pairs of each gather block into one gemm per matrix (BlockTranslator), so
// results stay bitwise-reproducible regardless of scheduling.
//
// The only adaptive-specific branch is in supernode_chunk: a parent-level
// source that is a FRONT LEAF is skipped, because every particle pair
// between a leaf's subtree and the boxes it is near is evaluated DIRECTLY
// by the U list (the leaf is, by construction, inside the d-neighborhood of
// the target's parent — never separated at any deeper level). Applying its
// supernode translation as well would double-count those pairs. The
// uniform-leaf executor and the distributed ranks pass no leaf flags.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
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
// flats[i] and writes its outer approximation at row i of far[h]; empty
// boxes are skipped. Shared by the uniform-leaf and distributed executors —
// the distributed ranks pass a workspace holding a rank-local particle
// view, and the arithmetic is identical because every lookup goes through
// that workspace's own boxed maps.
inline void p2m_leaves(const FmmConfig& config, const tree::Hierarchy& hier,
                       SolveWorkspace& ws,
                       std::span<const std::uint32_t> flats, std::size_t lo,
                       std::size_t hi, PhaseStats& stats) {
  const int h = hier.depth();
  std::uint64_t local_flops = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t f = flats[i];
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
    const std::size_t f = flats[i];
    const auto [b, e] = leaf_range(ws.boxed, f);
    local_flops += l2p_box(config, hier, ws, h, f, i, b, e);
  }
  stats.flops += local_flops;
}

// Gather blocks of the translation stages (DESIGN.md Section 9): each
// stage walks its targets in blocks of at most kGatherBlock, and for every
// matrix applies all of the block's (source row -> target row) pairs at
// once. The blocks bound the chunk's gather slabs at kGatherBlock x K
// doubles each.
inline constexpr std::size_t kGatherBlock = 512;

// Applies translation matrices to blocks of one stage's targets, in the
// scratch slot of the stage chunk. kGemv applies each pair as one gemv.
// kGemm gathers the block's source rows into the slot's slab, runs one gemm
// and scatter-adds the product rows into their targets. A gemm product row
// depends only on its own source row, not on where it lands in the slab,
// and so not on the stage's chunk split or on which targets a distributed
// rank owns. A target receives its matrices in the order its stage applies
// them, under either mode.
class BlockTranslator {
 public:
  BlockTranslator(ActiveContext& ctx, std::size_t chunk)
      : slot_(ctx.ws.arena.slot(chunk)),
        k_(ctx.config.params.k()),
        gemm_(ctx.config.aggregation == AggregationMode::kGemm) {
    grow(slot_.targets, kGatherBlock, ctx.ws.allocs);
    if (gemm_) {
      grow(slot_.rows, kGatherBlock, ctx.ws.allocs);
      grow(slot_.src, kGatherBlock * k_, ctx.ws.allocs);
      grow(slot_.out, kGatherBlock * k_, ctx.ws.allocs);
    }
  }

  // Runs block(targets) over [lo, hi) in ascending gather blocks.
  template <class Block>
  void for_each_block(std::size_t lo, std::size_t hi, Block&& block) {
    for (std::size_t b0 = lo; b0 < hi; b0 += kGatherBlock) {
      const std::size_t b1 = std::min(hi, b0 + kGatherBlock);
      for (std::size_t t = b0; t < b1; ++t)
        slot_.targets[t - b0] = static_cast<std::uint32_t>(t);
      block(std::span<const std::uint32_t>{slot_.targets.data(), b1 - b0});
    }
  }

  // Runs block(o, targets) for each gather block of [lo, hi) and each
  // octant o = 0..7, over the block's targets t with octant(t) == o,
  // ascending.
  template <class Octant, class Block>
  void for_each_octant_block(std::size_t lo, std::size_t hi, Octant&& octant,
                             Block&& block) {
    for (std::size_t b0 = lo; b0 < hi; b0 += kGatherBlock) {
      const std::size_t b1 = std::min(hi, b0 + kGatherBlock);
      for (int o = 0; o < 8; ++o) {
        std::size_t n = 0;
        for (std::size_t t = b0; t < b1; ++t)
          if (octant(t) == o)
            slot_.targets[n++] = static_cast<std::uint32_t>(t);
        if (n > 0)
          block(o, std::span<const std::uint32_t>{slot_.targets.data(), n});
      }
    }
  }

  // Adds m applied to source(t) into row t of `dst` for every target t of
  // `targets` (at most kGatherBlock) whose source(t) is not null.
  template <class Source>
  void apply(const AppMatrix& m, std::span<const std::uint32_t> targets,
             double* dst, Source&& source) {
    const std::size_t k = k_;
    if (!gemm_) {
      for (const std::uint32_t t : targets) {
        const double* s = source(t);
        if (s == nullptr) continue;
        blas::gemv(m.t, k, s, dst + t * k, k, k, true);
        flops_ += blas::gemm_flops(1, k, k);
      }
      return;
    }
    double* slab = slot_.src.data();
    std::size_t rows = 0;
    for (const std::uint32_t t : targets) {
      const double* s = source(t);
      if (s == nullptr) continue;
      std::memcpy(slab + rows * k, s, k * sizeof(double));
      slot_.rows[rows++] = t;
    }
    if (rows == 0) return;
    double* out = slot_.out.data();
    blas::gemm(slab, k, m.tt.data(), k, out, k, rows, k, k, false);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* o = out + r * k;
      double* d = dst + static_cast<std::size_t>(slot_.rows[r]) * k;
      for (std::size_t i = 0; i < k; ++i) d[i] += o[i];
    }
    flops_ += blas::gemm_flops(rows, k, k);
    bytes_ += 2 * rows * k * sizeof(double);
  }

  void report(PhaseStats& stats) const {
    stats.flops += flops_;
    stats.bytes_moved += bytes_;
  }

 private:
  ChunkSlot& slot_;
  std::size_t k_;
  bool gemm_;
  std::uint64_t flops_ = 0, bytes_ = 0;
};

// Upward T1 over active PARENTS [lo, hi) of level l: each parent gathers
// its active children in octant order 0..7 through the dense->active map of
// level l + 1. Children absent from the set (inactive, or pruned under a
// front leaf) hold an exactly-zero or P2M-written far field, so skipping
// them changes nothing.
inline void upward_chunk(ActiveContext& ctx, int l, std::size_t chunk,
                         std::size_t lo, std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const tree::LevelActiveSet& parents = ctx.act.levels[l];
  const tree::LevelActiveSet& children = ctx.act.levels[l + 1];
  const double* child = ctx.ws.far[l + 1].data();
  BlockTranslator tr(ctx, chunk);
  tr.for_each_block(lo, hi, [&](std::span<const std::uint32_t> block) {
    for (int o = 0; o < 8; ++o)
      tr.apply(ctx.trans().t1[o], block, ctx.ws.far[l].data(),
               [&](std::uint32_t pi) -> const double* {
                 const tree::BoxCoord cc = tree::Hierarchy::child_of(
                     ctx.hier.coord_of(l, parents.boxes[pi]), o);
                 const std::int32_t ca =
                     children.dense_to_active[ctx.hier.flat_index(l + 1, cc)];
                 return ca < 0 ? nullptr
                               : child + static_cast<std::size_t>(ca) * k;
               });
  });
  tr.report(stats);
}

// Downward T3 over active CHILDREN [lo, hi) of level l (l > 2), grouped by
// octant (one matrix each): the parent of an active box is always active
// (parent closure), so the lookup cannot miss.
inline void downward_chunk(ActiveContext& ctx, int l, std::size_t chunk,
                           std::size_t lo, std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const tree::LevelActiveSet& children = ctx.act.levels[l];
  const tree::LevelActiveSet& parents = ctx.act.levels[l - 1];
  const double* parent = ctx.ws.local[l - 1].data();
  const auto coord = [&](std::size_t ci) {
    return ctx.hier.coord_of(l, children.boxes[ci]);
  };
  BlockTranslator tr(ctx, chunk);
  tr.for_each_octant_block(
      lo, hi,
      [&](std::size_t ci) { return tree::Hierarchy::octant_of(coord(ci)); },
      [&](int o, std::span<const std::uint32_t> group) {
        tr.apply(ctx.trans().t3[o], group, ctx.ws.local[l].data(),
                 [&](std::uint32_t ci) {
                   const std::int32_t pa =
                       parents.dense_to_active[ctx.hier.flat_index(
                           l - 1, tree::Hierarchy::parent_of(coord(ci)))];
                   return parent + static_cast<std::size_t>(pa) * k;
                 });
      });
  tr.report(stats);
}

// Non-supernode T2 over active TARGETS [lo, hi) of level l: the union
// offset list with per-axis target-parity admissibility, bounds checks for
// sources off the grid, and active lookups that skip empty sources.
inline void interactive_chunk(ActiveContext& ctx, int l, std::size_t chunk,
                              std::size_t lo, std::size_t hi,
                              PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const int d = ctx.config.separation;
  const std::int32_t n = ctx.hier.boxes_per_side(l);
  const tree::LevelActiveSet& act = ctx.act.levels[l];
  const double* far = ctx.ws.far[l].data();
  BlockTranslator tr(ctx, chunk);
  tr.for_each_block(lo, hi, [&](std::span<const std::uint32_t> block) {
    for (const UnionOffset& u : ctx.trans().union_offsets)
      tr.apply(ctx.trans().t2[tree::offset_cube_index(u.o, d)], block,
               ctx.ws.local[l].data(),
               [&](std::uint32_t ti) -> const double* {
                 const tree::BoxCoord c = ctx.hier.coord_of(l, act.boxes[ti]);
                 if (!u.all_parities &&
                     (!(u.valid_parity[0] & (1 << (c.ix & 1))) ||
                      !(u.valid_parity[1] & (1 << (c.iy & 1))) ||
                      !(u.valid_parity[2] & (1 << (c.iz & 1)))))
                   return nullptr;
                 const tree::BoxCoord s{c.ix + u.o.dx, c.iy + u.o.dy,
                                        c.iz + u.o.dz};
                 if (s.ix < 0 || s.ix >= n || s.iy < 0 || s.iy >= n ||
                     s.iz < 0 || s.iz >= n)
                   return nullptr;
                 const std::int32_t sa =
                     act.dense_to_active[ctx.hier.flat_index(l, s)];
                 return sa < 0 ? nullptr
                               : far + static_cast<std::size_t>(sa) * k;
               });
  });
  tr.report(stats);
}

// Supernode T2 over active TARGETS [lo, hi) of level l, grouped by octant:
// the precomputed gather plan's rectangles already encode source-in-bounds
// per (octant, entry) — a target only needs its parent coordinate inside
// the rectangle plus an active lookup on the source. Parent-level sources
// that are front leaves are suppressed (see the header comment).
inline void supernode_chunk(ActiveContext& ctx, int l, std::size_t chunk,
                            std::size_t lo, std::size_t hi,
                            PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const tree::LevelActiveSet& act = ctx.act.levels[l];
  const tree::LevelActiveSet& act_parent = ctx.act.levels[l - 1];
  const SupernodeLevelPlan& plan = ctx.plan.supernode_plans[l];
  const std::vector<std::uint8_t>* parent_leaf =
      ctx.leaf_flags != nullptr ? &(*ctx.leaf_flags)[l - 1] : nullptr;
  const double* far = ctx.ws.far[l].data();
  const double* far_parent = ctx.ws.far[l - 1].data();
  const auto coord = [&](std::size_t ti) {
    return ctx.hier.coord_of(l, act.boxes[ti]);
  };
  BlockTranslator tr(ctx, chunk);
  tr.for_each_octant_block(
      lo, hi,
      [&](std::size_t ti) { return tree::Hierarchy::octant_of(coord(ti)); },
      [&](int octant, std::span<const std::uint32_t> group) {
        for (const SupernodePlanEntry& pe : plan.per_octant[octant])
          tr.apply(*pe.matrix, group, ctx.ws.local[l].data(),
                   [&](std::uint32_t ti) -> const double* {
                     const tree::BoxCoord c = coord(ti);
                     const tree::BoxCoord p = tree::Hierarchy::parent_of(c);
                     if (p.ix < pe.lo[0] || p.ix >= pe.hi[0] ||
                         p.iy < pe.lo[1] || p.iy >= pe.hi[1] ||
                         p.iz < pe.lo[2] || p.iz >= pe.hi[2])
                       return nullptr;
                     if (pe.parent_source) {
                       const tree::BoxCoord s{p.ix + pe.offset.dx,
                                              p.iy + pe.offset.dy,
                                              p.iz + pe.offset.dz};
                       const std::int32_t sa = act_parent.dense_to_active[
                           ctx.hier.flat_index(l - 1, s)];
                       if (sa < 0) return nullptr;
                       // A front leaf's pairs are on the U list.
                       if (parent_leaf != nullptr &&
                           (*parent_leaf)[static_cast<std::size_t>(sa)] != 0)
                         return nullptr;
                       return far_parent + static_cast<std::size_t>(sa) * k;
                     }
                     const tree::BoxCoord s{c.ix + pe.offset.dx,
                                            c.iy + pe.offset.dy,
                                            c.iz + pe.offset.dz};
                     const std::int32_t sa =
                         act.dense_to_active[ctx.hier.flat_index(l, s)];
                     return sa < 0 ? nullptr
                                   : far + static_cast<std::size_t>(sa) * k;
                   });
      });
  tr.report(stats);
}

// Per-level translation stages of an active-set executor: the stage of
// level l iterates the active indices of ctx.act.levels[l].
inline void set_active_level_stages(ActiveContext& ctx, PipelineStages& st) {
  st.act = &ctx.act;
  st.upward = [&ctx](int l, std::size_t c, std::size_t lo, std::size_t hi,
                     PhaseStats& s) { upward_chunk(ctx, l, c, lo, hi, s); };
  st.downward = [&ctx](int l, std::size_t c, std::size_t lo, std::size_t hi,
                       PhaseStats& s) { downward_chunk(ctx, l, c, lo, hi, s); };
  st.interactive = [&ctx](int l, std::size_t c, std::size_t lo,
                          std::size_t hi, PhaseStats& s) {
    if (ctx.config.supernodes)
      supernode_chunk(ctx, l, c, lo, hi, s);
    else
      interactive_chunk(ctx, l, c, lo, hi, s);
  };
}

// Near stage of the uniform-leaf executor: the occupied
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
