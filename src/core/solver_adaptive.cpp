// Adaptive leaf-front executor (DESIGN.md Section 15).
//
// The sparse executor still refines every occupied box to ONE global leaf
// level; on clustered distributions the dense cluster core then pays
// O(n_leaf^2) direct work while the sparse fringe is over-refined. This
// executor replaces the global leaf level with an ncrit-style LEAF FRONT
// marked over the full-depth active sets (tree/refinement.hpp):
//   * the coordinate sort runs at a refinement CAP depth (depth_for);
//   * a reachable box becomes a leaf once its subtree holds <= ncrit
//     bodies (ncrit from FmmConfig::ncrit, or picked per solve by the
//     cost-model selector tree::select_ncrit);
//   * a balance ripple keeps every direct adjacency within one level, so
//     the near field is a U list of same-level and one-level-up leaf pairs
//     evaluated at the finer side;
//   * the far field runs the shared sparse translation chunks over the
//     PRUNED refined tree (leaves + ancestors), with parent-level supernode
//     sources that are front leaves suppressed — their pairs are on the U
//     list (see sparse_chunks.hpp).
// P2M/L2P act at each leaf's own level and radius over the leaf's sorted
// particle range: the coordinate sort's Morton key makes every box at every
// level one contiguous range, so a coarse leaf needs no particle re-sort.
//
// Reproducibility matches the other executors: the front, the pair plan
// and all chunk splits are fixed before the graph runs, leaves are
// enumerated in canonical (level, flat) order (the near stage in particle
// order), and every U adjacency is owned by exactly one side — results do
// not depend on scheduling or worker count. Warm solves reuse every buffer
// (zero heap growth).

#include <algorithm>
#include <utility>
#include <vector>

#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/refinement.hpp"
#include "pipeline.hpp"
#include "solver_internal.hpp"
#include "sparse_chunks.hpp"

namespace hfmm::core {

namespace {

using internal::ActiveContext;
using internal::FmmPlan;
using internal::SolveWorkspace;

// P2M/L2P over front leaves [lo, hi): each leaf at its own level, over its
// particle range, into its row of the pruned level store.
template <typename BoxOp>
void front_chunk(ActiveContext& ctx, std::size_t lo, std::size_t hi,
                 PhaseStats& stats, BoxOp op) {
  const tree::LeafFront& front = ctx.ws.front;
  std::uint64_t local_flops = 0;
  for (std::size_t li = lo; li < hi; ++li) {
    const int ll = front.leaf_level[li];
    const std::size_t f = front.leaf_flat[li];
    const std::int32_t row = ctx.act.levels[ll].dense_to_active[f];
    local_flops += op(ctx.config, ctx.hier, ctx.ws, ll, f,
                      static_cast<std::size_t>(row),
                      ctx.ws.leaf_bounds[2 * li],
                      ctx.ws.leaf_bounds[2 * li + 1]);
  }
  stats.flops += local_flops;
}

}  // namespace

// solve() has already run the coordinate sort at the refinement cap depth
// and filled ws.occupied; this executor derives the front and its plans in
// the "active" phase, then drives the same phase-graph pipeline as the
// sparse executor over the pruned refined tree.
FmmResult FmmSolver::solve_adaptive_(const ParticleSet& particles,
                                     const tree::Hierarchy& hier,
                                     FmmResult result, SolveView* view,
                                     bool sort_repaired) {
  const FmmPlan& plan = *impl_->plan;
  SolveWorkspace& ws = impl_->ws;
  const std::size_t n = particles.size();
  const std::size_t k = config_.params.k();
  const int h = hier.depth();

  const std::span<const tree::Offset> near_full{plan.near_offsets};
  const std::span<const tree::Offset> near_half{plan.near_half_offsets};
  const auto vv_bytes = [](const auto& vv) {
    std::size_t t = 0;
    for (const auto& v : vv)
      t += v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    return t;
  };

  // "active" phase: full-depth active sets, subtree counts, the cost-model
  // ncrit, the marked/balanced front, the pruned level sets, the front
  // leaves' particle ranges, their near-stage order and the U-list pair
  // plan. Everything reuses
  // workspace buffers — a warm solve grows nothing here.
  {
    ScopedPhaseTimer timer(result.breakdown["active"]);
    internal::refresh_active_levels(hier, ws, result.breakdown["active"]);

    const tree::LevelActiveSet& fine = ws.active.levels[h];
    const std::size_t nfine = fine.count();
    internal::grow(ws.leaf_counts, nfine, ws.allocs);
    for (std::size_t ai = 0; ai < nfine; ++ai)
      ws.leaf_counts[ai] = static_cast<std::uint32_t>(
          internal::particles_in(ws.boxed, fine.boxes[ai]));
    {
      const std::size_t cap_before = vv_bytes(ws.subtree_counts);
      tree::build_subtree_counts(hier, ws.active, ws.leaf_counts,
                                 ws.subtree_counts);
      if (vv_bytes(ws.subtree_counts) != cap_before)
        ws.allocs.fetch_add(1, std::memory_order_relaxed);
    }

    tree::RefinementCostParams cost_params;
    cost_params.k = k;
    cost_params.supernodes = config_.supernodes;
    cost_params.gradient = config_.with_gradient;
    cost_params.separation = config_.separation;
    // The cost-model pick evaluates the ladder rungs on the pool, one front
    // per rung, and copies the winner's front (a copy, not a swap, so every
    // buffer keeps its capacity across warm solves); a forced ncrit marks
    // its front directly.
    const auto fronts_bytes = [&] {
      std::size_t b = ws.front.capacity_bytes();
      for (const tree::LeafFront& f : ws.rung_fronts) b += f.capacity_bytes();
      return b;
    };
    static constexpr int kLadder[] = {8, 16, 32, 64, 128};
    const std::size_t cap_before = fronts_bytes();
    int ncrit = config_.ncrit;
    if (ncrit <= 0) {
      if (ws.rung_fronts.size() < std::size(kLadder))
        ws.rung_fronts.resize(std::size(kLadder));
      ncrit = tree::select_ncrit(hier, ws.active, ws.subtree_counts,
                                 near_full, near_half, cost_params, kLadder,
                                 /*min_level=*/2, ws.rung_fronts,
                                 impl_->pool);
      const std::size_t won = static_cast<std::size_t>(
          std::find(std::begin(kLadder), std::end(kLadder), ncrit) -
          std::begin(kLadder));
      ws.front = ws.rung_fronts[won];
    } else {
      tree::build_leaf_front(hier, ws.active, ws.subtree_counts, ncrit,
                             /*min_level=*/2, near_full, ws.front);
    }
    if (fronts_bytes() != cap_before)
      ws.allocs.fetch_add(1, std::memory_order_relaxed);
    result.ncrit = ncrit;
    {
      const std::size_t cap_before =
          ws.pruned.capacity_bytes() + vv_bytes(ws.pruned_leaf);
      tree::build_front_levels(hier, ws.active, ws.front, ws.pruned,
                               ws.pruned_leaf);
      if (ws.pruned.capacity_bytes() + vv_bytes(ws.pruned_leaf) != cap_before)
        ws.allocs.fetch_add(1, std::memory_order_relaxed);
    }

    const tree::LeafFront& front = ws.front;
    const std::size_t nl = front.leaves();

    // Particle range of every front leaf.
    internal::grow(ws.leaf_bounds, 2 * nl, ws.allocs);
    for (std::size_t li = 0; li < nl; ++li) {
      const auto [b, e] = dp::box_range(ws.boxed, hier, front.leaf_level[li],
                                        front.leaf_flat[li]);
      ws.leaf_bounds[2 * li] = b;
      ws.leaf_bounds[2 * li + 1] = e;
    }

    // U-list pair plan: every adjacency once, under its owning leaf.
    internal::grow(ws.pair_begin, nl + 1, ws.allocs);
    std::fill(ws.pair_begin.begin(), ws.pair_begin.begin() + nl + 1, 0u);
    std::size_t npairs = 0;
    tree::for_each_near_pair(hier, ws.active, front, near_full, near_half,
                             [&](std::size_t li, int, std::uint32_t) {
                               ++ws.pair_begin[li + 1];
                               ++npairs;
                             });
    for (std::size_t li = 0; li < nl; ++li)
      ws.pair_begin[li + 1] += ws.pair_begin[li];
    // for_each_near_pair visits the owning leaves in ascending order, so
    // the fill order is the CSR order.
    internal::grow(ws.pair_leaf, npairs, ws.allocs);
    std::size_t at = 0;
    tree::for_each_near_pair(
        hier, ws.active, front, near_full, near_half,
        [&](std::size_t, int sl, std::uint32_t sa) {
          ws.pair_leaf[at++] = static_cast<std::uint32_t>(
              front.leaf_id[sl][static_cast<std::size_t>(sa)]);
        });

    // The near stage's leaf order: ascending particle range (the Morton
    // order of the front), so each near chunk is spatially compact and its
    // write window short. Ties (empty leaves) break by leaf id.
    internal::grow(ws.near_leaves, nl, ws.allocs);
    for (std::size_t li = 0; li < nl; ++li)
      ws.near_leaves[li] = static_cast<std::uint32_t>(li);
    std::sort(ws.near_leaves.begin(), ws.near_leaves.begin() + nl,
              [&ws](std::uint32_t a, std::uint32_t b) {
                return ws.leaf_bounds[2 * a] < ws.leaf_bounds[2 * b] ||
                       (ws.leaf_bounds[2 * a] == ws.leaf_bounds[2 * b] &&
                        a < b);
              });

    // Cost weights: subtree body counts drive the leaf stages, exact U-list
    // pair counts (in near-stage order) drive the near-field chunk split.
    internal::grow(ws.leaf_cost, nl, ws.allocs);
    internal::grow(ws.near_cost, nl, ws.allocs);
    for (std::size_t li = 0; li < nl; ++li) {
      const int ll = front.leaf_level[li];
      const std::int32_t ai =
          ws.active.levels[ll].dense_to_active[front.leaf_flat[li]];
      ws.leaf_cost[li] = ws.subtree_counts[ll][static_cast<std::size_t>(ai)];
    }
    // The front's modeled cost comes from the same counts: unordered self
    // pairs plus U-list pairs, one kernel call per leaf and per adjacency.
    tree::RefinementCost model;
    model.leaf_calls = nl + npairs;
    model.tree_boxes = ws.pruned.total_active();
    for (std::size_t j = 0; j < nl; ++j) {
      const std::uint32_t li = ws.near_leaves[j];
      const std::uint64_t t = ws.leaf_cost[li];
      const std::uint64_t self = t * (t > 0 ? t - 1 : 0);
      std::uint64_t cross = 0;
      for (std::uint32_t pi = ws.pair_begin[li]; pi < ws.pair_begin[li + 1];
           ++pi)
        cross += t * ws.leaf_cost[ws.pair_leaf[pi]];
      ws.near_cost[j] = self + cross;
      model.near_pairs += self / 2 + cross;
    }
    tree::apply_cost_model(cost_params, model);
    result.modeled_seconds = model.seconds;

    PhaseStats& st = result.breakdown["active"];
    st.boxes_active += ws.pruned.total_active();
    st.boxes_total += ws.active.total_dense();
  }

  const tree::ActiveLevels& act = ws.pruned;
  const tree::LeafFront& front = ws.front;
  const int maxL = front.max_leaf_level;
  const std::size_t nl = front.leaves();
  result.adaptive = true;
  result.leaf_boxes = nl;
  result.front_leaves = nl;
  result.active_boxes = act.total_active();
  result.level_occupancy.resize(maxL + 1);
  for (int l = 0; l <= maxL; ++l)
    result.level_occupancy[l] = act.occupancy(l);

  // The far chain runs over the pruned refined tree down to the deepest
  // front level; the leaf stages act on the front, split by subtree body
  // counts, and the near field on its U list, split by exact pair counts.
  ActiveContext ctx{config_, plan, hier, ws, act, &ws.pruned_leaf};
  internal::PipelineStages st;
  st.far_depth = maxL;
  st.leaf_cost = ws.leaf_cost;
  st.near_cost = ws.near_cost;
  st.p2m = [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& s) {
    front_chunk(ctx, lo, hi, s, internal::p2m_box);
  };
  st.l2p = [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& s) {
    front_chunk(ctx, lo, hi, s, internal::l2p_box);
  };
  internal::set_active_level_stages(ctx, st);
  st.near = [&](NearFieldScratch::Chunk& ch, std::size_t lo, std::size_t hi) {
    const AdaptiveLeafPlan aplan{ws.leaf_bounds, ws.pair_begin, ws.pair_leaf};
    return near_field_adaptive_chunk(
        ws.boxed, aplan, config_.with_gradient, ch,
        std::span<const std::uint32_t>{ws.near_leaves}.subspan(lo, hi - lo),
        impl_->near);
  };
  // The full active sets match the sort (reusable); the front and its plans
  // are rebuilt per solve, and ws.leaf_cost/near_cost now describe front
  // leaves — a later sparse solve must rebuild them.
  st.active_valid = true;
  st.cost_valid = false;
  internal::run_pipeline(st, config_, hier, ws, *impl_->pool, n,
                         sort_repaired, view, result);
  return result;
}

}  // namespace hfmm::core
