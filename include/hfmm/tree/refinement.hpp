#pragma once
// Adaptive per-box octree refinement (DESIGN.md Section 15).
//
// The paper's Section 2.3 occupancy rule picks ONE global leaf level, which
// assumes near-uniform inputs: on clustered distributions (Plummer cores)
// dense leaves pay O(n_leaf^2) direct work while the rest of the domain is
// over-refined. This header replaces the single leaf level with an
// ncrit-style LEAF FRONT over the full-depth sparse active sets
// (tree::ActiveLevels):
//   * a reachable box becomes a leaf when its subtree holds <= ncrit bodies
//     (or it sits at the refinement depth cap);
//   * boxes under a leaf are pruned; boxes above keep splitting;
//   * a 2:1-style balance pass splits any leaf whose direct (U-list)
//     partner would sit two or more levels deeper, so every adjacency pair
//     spans at most one level.
// The far field runs unchanged on the pruned tree (same-level interactive /
// supernode translations, V-list style); the near field becomes a U list of
// leaf-leaf adjacencies evaluated at the finer side (for_each_near_pair).
//
// The refinement threshold is picked by MINIMIZING MODELED TIME — exact
// U-list pair and call counts plus translations per tree box — instead of
// mean occupancy (front_cost / select_ncrit / select_uniform_depth). All
// builders reuse the caller's buffers so warm solves perform no heap growth.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hfmm/tree/active_set.hpp"
#include "hfmm/tree/hierarchy.hpp"
#include "hfmm/tree/interaction_lists.hpp"

namespace hfmm {
class ThreadPool;
}  // namespace hfmm

namespace hfmm::tree {

/// The non-uniform leaf front marked over a full-depth ActiveLevels. All
/// per-box arrays are aligned with the FULL active sets' active indices.
struct LeafFront {
  /// Box role in the refined tree.
  enum State : std::uint8_t {
    kBelow = 0,    ///< under a leaf — pruned from the refined tree
    kInternal = 1, ///< reachable, splits further (carries expansions only)
    kLeaf = 2,     ///< front leaf — owns its subtree's particles
  };

  int depth = -1;         ///< depth of the ActiveLevels the front was marked on
  int min_level = 2;      ///< shallowest level a leaf may occupy
  int max_leaf_level = 0; ///< deepest level holding a leaf
  int ncrit = 0;          ///< split threshold the front was built with

  /// Per level (0..depth), per active index: the box's State.
  std::vector<std::vector<std::uint8_t>> state;
  /// Per level, per active index: front leaf id, -1 when not a leaf.
  std::vector<std::vector<std::int32_t>> leaf_id;
  /// Per level, per active index: 1 when the box has an internal child —
  /// the balance ripple's working set.
  std::vector<std::vector<std::uint8_t>> deep;
  /// Canonical leaf enumeration, ascending (level, flat index) — the fixed
  /// evaluation order every near-field plan and reduction follows.
  std::vector<std::int32_t> leaf_level;
  std::vector<std::uint32_t> leaf_flat;

  std::size_t leaves() const { return leaf_flat.size(); }
  bool is_leaf(int level, std::size_t active_index) const {
    return state[static_cast<std::size_t>(level)][active_index] == kLeaf;
  }
  /// Heap footprint (capacity, not size) — warm-solve growth checks.
  std::size_t capacity_bytes() const;
};

/// Subtree body counts per active box: counts[l][active_index] = number of
/// particles in the box's subtree. `leaf_counts` is aligned with the DEEPEST
/// level's active list (act.levels[act.depth].boxes). Buffers are reused.
void build_subtree_counts(const Hierarchy& hier, const ActiveLevels& act,
                          std::span<const std::uint32_t> leaf_counts,
                          std::vector<std::vector<std::uint32_t>>& counts);

/// Marks the leaf front for `ncrit` over the full active sets: top-down
/// reachability, leaf when the subtree count drops to <= ncrit (or the box
/// sits at act.depth), then the balance ripple — any leaf within `near`
/// offsets of a same-level box with an internal child (so with a direct
/// partner two or more levels deeper) is split until every adjacency spans
/// at most one level. `counts` comes from build_subtree_counts; `near` is
/// tree::near_field_offsets(d). Deterministic; buffers reused across calls.
void build_leaf_front(const Hierarchy& hier, const ActiveLevels& act,
                      const std::vector<std::vector<std::uint32_t>>& counts,
                      int ncrit, int min_level, std::span<const Offset> near,
                      LeafFront& out);

/// The PRUNED active sets of the refined tree: every box that is a front
/// leaf or an ancestor of one (state != kBelow), depth = max_leaf_level.
/// `out_leaf` mirrors `out`'s active indices: 1 when the box is a front
/// leaf (the executor uses it to suppress supernode parent-level sources
/// whose pairs the U list already covers). Buffers reused.
void build_front_levels(const Hierarchy& hier, const ActiveLevels& act,
                        const LeafFront& front, ActiveLevels& out,
                        std::vector<std::vector<std::uint8_t>>& out_leaf);

/// Enumerates every U-list adjacency of the front exactly once, in the
/// canonical leaf order: fn(owner_leaf_id, source_level, source_active_index)
/// where the source is a front leaf of the FULL active sets. Same-level
/// pairs are emitted once via the half list (`near_half`,
/// tree::near_field_half_offsets(d)); coarse-fine pairs are owned by the
/// FINER side and reach exactly one level up (the balance pass guarantees
/// no wider gap). A leaf's own (self) pairs are implicit.
template <typename Fn>
void for_each_near_pair(const Hierarchy& hier, const ActiveLevels& act,
                        const LeafFront& front, std::span<const Offset> near,
                        std::span<const Offset> near_half, Fn&& fn) {
  for (std::size_t li = 0; li < front.leaves(); ++li) {
    const int l = front.leaf_level[li];
    const BoxCoord c = hier.coord_of(l, front.leaf_flat[li]);
    const LevelActiveSet& same = act.levels[static_cast<std::size_t>(l)];
    for (const Offset& o : near_half) {
      const BoxCoord nb{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
      if (!hier.in_bounds(l, nb)) continue;
      const std::int32_t ai = same.dense_to_active[hier.flat_index(l, nb)];
      if (ai < 0 || !front.is_leaf(l, static_cast<std::size_t>(ai))) continue;
      fn(li, l, static_cast<std::uint32_t>(ai));
    }
    if (l - 1 >= front.min_level) {
      const BoxCoord p = Hierarchy::parent_of(c);
      const LevelActiveSet& up = act.levels[static_cast<std::size_t>(l - 1)];
      for (const Offset& o : near) {
        const BoxCoord nb{p.ix + o.dx, p.iy + o.dy, p.iz + o.dz};
        if (!hier.in_bounds(l - 1, nb)) continue;
        const std::int32_t ai =
            up.dense_to_active[hier.flat_index(l - 1, nb)];
        if (ai < 0 || !front.is_leaf(l - 1, static_cast<std::size_t>(ai)))
          continue;
        fn(li, l - 1, static_cast<std::uint32_t>(ai));
      }
    }
  }
}

/// The refinement cost model (DESIGN.md Section 15): modeled seconds of a
/// front from three per-operation rates, fitted once to a forced-ncrit
/// sweep (bench_breakdown's "ncrit_sweep" rows; Release build, 4-core
/// x86-64 with AVX2, sequential solves) and compiled in, so the pick is a
/// pure function of the input and the config:
///   * near pairs: ns per U-list particle pair;
///   * leaf-pair calls: ns per direct-kernel call — one per front leaf (its
///     self pairs) and one per U-list adjacency. This per-call overhead is
///     what makes small leaves slow;
///   * translations: ns per entry of a K x K translation matrix, times the
///     translations a tree box carries — the full interaction-list length
///     for the separation and supernode setting, plus its upward and
///     downward translation.
/// The near rates depend on whether the solve evaluates the gradient.
struct RefinementCostParams {
  std::size_t k = 12;
  bool supernodes = true;
  bool gradient = true;
  int separation = 2;

  struct NearRates {
    double pair_ns;  ///< per near-field particle pair
    double call_ns;  ///< per leaf-pair kernel call
  };
  static constexpr NearRates kNearPotential{1.1, 40.0};
  static constexpr NearRates kNearGradient{2.0, 130.0};
  static constexpr double kTranslationNsPerEntry = 0.31;

  NearRates near_rates() const {
    return gradient ? kNearGradient : kNearPotential;
  }
  /// Modeled ns of the translations one tree box carries.
  double box_ns() const;
};

/// Modeled cost of one leaf-front (or uniform-level) configuration.
struct RefinementCost {
  std::uint64_t near_pairs = 0;  ///< U-list particle pairs (unordered)
  std::uint64_t leaf_calls = 0;  ///< front leaves plus U-list adjacencies
  std::uint64_t tree_boxes = 0;  ///< boxes carrying expansions
  double seconds = 0.0;          ///< modeled time of the three terms
};

/// Fills `cost.seconds` from its counts.
void apply_cost_model(const RefinementCostParams& params, RefinementCost& cost);

/// Exact modeled cost of a marked front: near_pairs counts every intra-leaf
/// unordered pair plus every U-list adjacency pair (for_each_near_pair);
/// leaf_calls counts the leaves and the adjacencies; tree_boxes counts the
/// pruned tree.
RefinementCost front_cost(const Hierarchy& hier, const ActiveLevels& act,
                          const std::vector<std::vector<std::uint32_t>>& counts,
                          const LeafFront& front, std::span<const Offset> near,
                          std::span<const Offset> near_half,
                          const RefinementCostParams& params);

/// Modeled cost of the UNIFORM front with every active level-`h` box a leaf
/// — what the single-leaf-level executors pay.
RefinementCost uniform_cost(const Hierarchy& hier, const ActiveLevels& act,
                            const std::vector<std::vector<std::uint32_t>>& counts,
                            int h, std::span<const Offset> near_half,
                            const RefinementCostParams& params);

/// Cost-model replacement for the Section 2.3 occupancy rule: the uniform
/// leaf level in [min_level, act.depth] minimizing uniform_cost (ties to
/// the shallower level). Agrees with optimal_depth() on uniform inputs and
/// goes deeper on clustered ones, where pair counts — not mean occupancy —
/// dominate.
int select_uniform_depth(const Hierarchy& hier, const ActiveLevels& act,
                         const std::vector<std::vector<std::uint32_t>>& counts,
                         std::span<const Offset> near_half,
                         const RefinementCostParams& params,
                         int min_level = 2);

/// Picks the ncrit from `candidates` (at most 16) whose marked front
/// minimizes front_cost (first minimum wins). The last candidate — the
/// coarsest on an ascending ladder — is costed first; any other whose
/// marked front already carries more modeled box and call time than that
/// cost, before the balance ripple, is dismissed without a ripple or a
/// cost pass, since it cannot be the minimum. With one front per candidate
/// (fronts.size() >= candidates.size()) and a pool, the remaining
/// candidates are evaluated in parallel, candidate i in fronts[i], so the
/// winner's front is left complete in its slot (a dismissed candidate's
/// front is left marked but not balanced); otherwise they run one after
/// another in fronts[0]. The pick depends only on the input and params,
/// never on the path or the worker count.
int select_ncrit(const Hierarchy& hier, const ActiveLevels& act,
                 const std::vector<std::vector<std::uint32_t>>& counts,
                 std::span<const Offset> near,
                 std::span<const Offset> near_half,
                 const RefinementCostParams& params,
                 std::span<const int> candidates, int min_level,
                 std::span<LeafFront> fronts, ThreadPool* pool);

/// The sequential form: every candidate is marked into `scratch`, and the
/// caller re-marks the winner afterwards.
int select_ncrit(const Hierarchy& hier, const ActiveLevels& act,
                 const std::vector<std::vector<std::uint32_t>>& counts,
                 std::span<const Offset> near,
                 std::span<const Offset> near_half,
                 const RefinementCostParams& params,
                 std::span<const int> candidates, int min_level,
                 LeafFront& scratch);

}  // namespace hfmm::tree
