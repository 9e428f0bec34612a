// Sparse active-box executor (DESIGN.md Section 13).
//
// The dense executor iterates every box of every level; on clustered
// distributions most of those boxes are empty — their far fields are exactly
// zero and their local fields feed no particles. This executor derives
// per-level ACTIVE sets from the coordinate sort's leaf occupancy (leaf
// active iff non-empty, internal box active iff any child active) and runs
// every phase over active indices only:
//   * level stores shrink from 8^l x K to |active_l| x K values,
//   * translation stages skip inactive boxes entirely (their contribution
//     is exactly 0.0, so skipping them is arithmetic-neutral),
//   * the near field and the leaf phases split into cost-weighted chunks
//     (particle counts / pair counts) instead of equal box counts.
// Active boxes are not contiguous in the dense grids, so translations apply
// per box (BLAS-2 gemv) through the dense->active maps; the dense executor
// remains the BLAS-3 fast path for (near-)uniform inputs — solve() picks
// between them from the measured leaf occupancy (HierarchyMode::kAuto).
//
// Reproducibility: active lists are ascending flat indices, stage chunk
// splits are fixed before the graph runs, and per-box source application
// follows the same fixed offset order as the dense path — results do not
// depend on scheduling or worker count.

#include <algorithm>
#include <vector>

#include "hfmm/anderson/kernels.hpp"
#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/active_set.hpp"
#include "pipeline.hpp"
#include "solver_internal.hpp"
#include "sparse_chunks.hpp"

namespace hfmm::core {

namespace {

using internal::ActiveContext;
using internal::FmmPlan;
using internal::SolveWorkspace;
using internal::particles_in;

}  // namespace

void internal::refresh_active_levels(const tree::Hierarchy& hier,
                                     SolveWorkspace& ws, PhaseStats& active) {
  if (ws.step.cur_incremental && !ws.step.cur_emptiness_changed &&
      ws.step.active_valid) {
    // No box flipped empty <-> non-empty: the active level sets (and the
    // dense->active maps) from the previous step are still exact.
    active.plan_reuse += 1;
    return;
  }
  const std::size_t cap_before = ws.active.capacity_bytes();
  tree::build_active_levels(hier, ws.occupied, ws.active);
  if (ws.active.capacity_bytes() != cap_before)
    ws.allocs.fetch_add(1, std::memory_order_relaxed);
}

// Derives the active level sets and the per-leaf cost model (the "active"
// phase), shared by the dense, sparse and distributed executors: particle
// counts weight the sparse leaf stages, near-field pair counts weight the
// near-field chunks (and the distributed partitioner). Both reuse workspace
// buffers — a warm solve grows nothing here. On an incremental step
// (ws.step.cur_incremental) the sort diff drives what gets rebuilt: nothing
// when no box changed occupancy, only the affected cost entries when counts
// changed without any empty <-> non-empty flip, and everything otherwise.
void internal::update_active_costs(const FmmConfig& config,
                                   const internal::FmmPlan& plan,
                                   const tree::Hierarchy& hier, bool periodic,
                                   internal::SolveWorkspace& ws,
                                   FmmResult& result) {
  const int h = hier.depth();
  const std::span<const tree::Offset> offsets =
      plan.near_list(config.near_symmetry);
  PhaseBreakdown& breakdown = result.breakdown;
  ScopedPhaseTimer timer(breakdown["active"]);
  refresh_active_levels(hier, ws, breakdown["active"]);
  const bool structures_ok =
      ws.step.cur_incremental && !ws.step.cur_emptiness_changed;

  const tree::LevelActiveSet& leaves = ws.active.levels[h];
  const std::size_t nl = leaves.count();
  const std::int32_t nside = hier.boxes_per_side(h);
  // Maps a neighbour coordinate onto the leaf grid: wrapped when periodic,
  // false when it falls off a non-periodic grid.
  const auto on_grid = [&](tree::BoxCoord& c) {
    if (!periodic)
      return c.ix >= 0 && c.ix < nside && c.iy >= 0 && c.iy < nside &&
             c.iz >= 0 && c.iz < nside;
    c.ix = (c.ix + nside) % nside;
    c.iy = (c.iy + nside) % nside;
    c.iz = (c.iz + nside) % nside;
    return true;
  };
  // Cost entries for one active leaf (leaf = its particle count, near =
  // its near-field pair count, stored at the leaf's Morton position) — the
  // full build and the per-step patch apply the identical formula.
  const auto cost_at = [&](std::size_t ai) {
    const std::size_t f = leaves.boxes[ai];
    const tree::BoxCoord c = hier.coord_of(h, f);
    const std::uint64_t t = particles_in(ws.boxed, f);
    ws.leaf_cost[ai] = t;
    std::uint64_t pairs = t * (t > 0 ? t - 1 : 0);
    for (const tree::Offset& o : offsets) {
      if (o == tree::Offset{0, 0, 0}) continue;
      tree::BoxCoord nb{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
      if (!on_grid(nb)) continue;
      pairs += t * particles_in(ws.boxed, hier.flat_index(h, nb));
    }
    ws.near_cost[ws.near_pos[ai]] = pairs;
  };
  if (structures_ok && ws.step.cost_valid) {
    if (!ws.step.cur_counts_changed) {
      // Count-preserving membership swaps don't move any cost entry.
      breakdown["active"].plan_reuse += 1;
    } else {
      // A changed count at leaf g dirties g's own entries plus every
      // leaf f whose near list reaches g (f + o == g for an offset o in
      // the list — with the symmetric half list each pair is costed once,
      // on the side that owns it, so the inverse offsets cover exactly
      // the dependent entries).
      ws.cost_patch.clear();
      const auto push_flat = [&](tree::BoxCoord c) {
        if (!on_grid(c)) return;
        const std::int32_t ai =
            leaves.dense_to_active[hier.flat_index(h, c)];
        if (ai >= 0) ws.cost_patch.push_back(static_cast<std::uint32_t>(ai));
      };
      for (const std::uint32_t r : ws.sort_scratch.changed_ranks) {
        const tree::BoxCoord c =
            hier.coord_of(h, ws.boxed.rank_to_flat[r]);
        push_flat(c);
        for (const tree::Offset& o : offsets) {
          if (o == tree::Offset{0, 0, 0}) continue;
          push_flat({c.ix - o.dx, c.iy - o.dy, c.iz - o.dz});
        }
      }
      std::sort(ws.cost_patch.begin(), ws.cost_patch.end());
      ws.cost_patch.erase(
          std::unique(ws.cost_patch.begin(), ws.cost_patch.end()),
          ws.cost_patch.end());
      for (const std::uint32_t ai : ws.cost_patch) cost_at(ai);
      breakdown["active"].chunks_rebuilt += ws.cost_patch.size();
    }
  } else {
    internal::grow(ws.leaf_cost, nl, ws.allocs);
    internal::grow(ws.near_cost, nl, ws.allocs);
    internal::grow(ws.near_pos, nl, ws.allocs);
    for (std::size_t j = 0; j < nl; ++j)
      ws.near_pos[leaves.dense_to_active[ws.occupied[j]]] =
          static_cast<std::uint32_t>(j);
    for (std::size_t ai = 0; ai < nl; ++ai) cost_at(ai);
  }
  const tree::ActiveLevels& act = ws.active;
  result.active_boxes = act.total_active();
  result.level_occupancy.resize(act.depth + 1);
  for (int l = 0; l <= act.depth; ++l)
    result.level_occupancy[l] = act.occupancy(l);
  breakdown["active"].boxes_active += act.total_active();
  breakdown["active"].boxes_total += act.total_dense();
}

// solve() has already run the coordinate sort (charged to "sort"), filled
// ws.occupied with the non-empty leaf flats, and decided for this executor.
FmmResult FmmSolver::solve_sparse_(const ParticleSet& particles,
                                   const tree::Hierarchy& hier,
                                   FmmResult result, SolveView* view,
                                   bool sort_repaired) {
  const FmmPlan& plan = *impl_->plan;
  SolveWorkspace& ws = impl_->ws;
  const std::size_t n = particles.size();
  const std::size_t k = config_.params.k();
  const int h = hier.depth();

  // The "active" phase. Periodic short-range solves wrap box neighbours, so
  // the cost model counts the wrapped pairs it will evaluate.
  internal::update_active_costs(config_, plan, hier,
                                impl_->near.vdw.period > 0.0, ws, result);
  result.sparse = true;
  const tree::ActiveLevels& act = ws.active;

  // Every stage iterates active indices; the leaf stages and the near field
  // split by cost (particle counts / pair counts) so no worker inherits the
  // whole dense cluster core.
  ActiveContext ctx{config_, plan, hier, ws, act};
  internal::PipelineStages st;
  st.far_depth = h;
  st.leaves = act.levels[h].count();
  st.leaf_cost = ws.leaf_cost;
  st.prepare_levels = [&] { ws.prepare_levels(act.depth, k, &act); };
  const std::span<const std::uint32_t> leaf_list{act.levels[h].boxes};
  st.p2m = [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& s) {
    internal::p2m_leaves(config_, hier, ws, leaf_list, lo, hi, s);
  };
  st.l2p = [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& s) {
    internal::l2p_leaves(config_, hier, ws, leaf_list, lo, hi, s);
  };
  internal::set_active_level_stages(ctx, st);
  internal::set_active_near_stage(ctx, impl_->near, st);
  // This solve's active sets and cost entries match the new sort.
  st.active_valid = true;
  st.cost_valid = true;
  internal::run_pipeline(st, config_, hier, ws, *impl_->pool, n,
                         sort_repaired, view, result);
  return result;
}

}  // namespace hfmm::core
