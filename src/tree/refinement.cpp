#include "hfmm/tree/refinement.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "hfmm/util/thread_pool.hpp"

namespace hfmm::tree {

namespace {

// Grows a vector-of-vectors to `levels` entries without ever shrinking, so
// warm rebuilds at the same depth reuse every inner buffer's capacity.
template <typename T>
void ensure_levels(std::vector<std::vector<T>>& v, std::size_t levels) {
  if (v.size() < levels) v.resize(levels);
}

}  // namespace

std::size_t LeafFront::capacity_bytes() const {
  std::size_t b = leaf_level.capacity() * sizeof(std::int32_t) +
                  leaf_flat.capacity() * sizeof(std::uint32_t);
  for (const auto& s : state) b += s.capacity() * sizeof(std::uint8_t);
  for (const auto& s : leaf_id) b += s.capacity() * sizeof(std::int32_t);
  for (const auto& s : deep) b += s.capacity() * sizeof(std::uint8_t);
  return b;
}

void build_subtree_counts(const Hierarchy& hier, const ActiveLevels& act,
                          std::span<const std::uint32_t> leaf_counts,
                          std::vector<std::vector<std::uint32_t>>& counts) {
  const int depth = act.depth;
  ensure_levels(counts, static_cast<std::size_t>(depth) + 1);
  counts[static_cast<std::size_t>(depth)].assign(leaf_counts.begin(),
                                                 leaf_counts.end());
  for (int l = depth - 1; l >= 0; --l) {
    const LevelActiveSet& par = act.levels[static_cast<std::size_t>(l)];
    const LevelActiveSet& chi = act.levels[static_cast<std::size_t>(l + 1)];
    auto& dst = counts[static_cast<std::size_t>(l)];
    const auto& src = counts[static_cast<std::size_t>(l + 1)];
    dst.assign(par.count(), 0);
    for (std::size_t ci = 0; ci < chi.count(); ++ci) {
      const BoxCoord c = hier.coord_of(l + 1, chi.boxes[ci]);
      const std::size_t pf = hier.flat_index(l, Hierarchy::parent_of(c));
      dst[static_cast<std::size_t>(par.dense_to_active[pf])] += src[ci];
    }
  }
}

namespace {

// Boxes and leaves of a marked front, before the balance ripple. The
// ripple only splits leaves, so both can only grow from here.
struct MarkedCounts {
  std::uint64_t boxes = 0;
  std::uint64_t leaves = 0;
};

// The top-down marking of build_leaf_front, without the balance ripple.
MarkedCounts mark_front(const Hierarchy& hier, const ActiveLevels& act,
                        const std::vector<std::vector<std::uint32_t>>& counts,
                        int ncrit, int min_level, LeafFront& out) {
  const int depth = act.depth;
  min_level = std::min(min_level, depth);
  out.depth = depth;
  out.min_level = min_level;
  out.ncrit = ncrit;
  const std::size_t nlev = static_cast<std::size_t>(depth) + 1;
  ensure_levels(out.state, nlev);
  ensure_levels(out.leaf_id, nlev);
  ensure_levels(out.deep, nlev);

  // Top-down marking: a box is reachable while every ancestor keeps
  // splitting; a reachable box at or below min_level becomes a leaf when
  // its subtree count fits ncrit or it sits at the depth cap. Every
  // internal box also flags its parent in `deep` (the parent has an
  // internal child), which the balance ripple reads.
  const std::uint32_t limit =
      ncrit > 0 ? static_cast<std::uint32_t>(ncrit) : 0;
  MarkedCounts marked;
  for (int l = 0; l <= depth; ++l) {
    const LevelActiveSet& lvl = act.levels[static_cast<std::size_t>(l)];
    auto& st = out.state[static_cast<std::size_t>(l)];
    st.assign(lvl.count(), LeafFront::kBelow);
    out.deep[static_cast<std::size_t>(l)].assign(lvl.count(), 0);
    const LevelActiveSet* up =
        l > 0 ? &act.levels[static_cast<std::size_t>(l - 1)] : nullptr;
    for (std::size_t ai = 0; ai < lvl.count(); ++ai) {
      std::int32_t pai = -1;
      if (l > 0) {
        const BoxCoord c = hier.coord_of(l, lvl.boxes[ai]);
        pai = up->dense_to_active[hier.flat_index(
            l - 1, Hierarchy::parent_of(c))];
        if (l > min_level &&
            out.state[static_cast<std::size_t>(l - 1)]
                     [static_cast<std::size_t>(pai)] != LeafFront::kInternal)
          continue;  // under a leaf — pruned
      }
      ++marked.boxes;
      if (l >= min_level &&
          (l == depth || counts[static_cast<std::size_t>(l)][ai] <= limit)) {
        st[ai] = LeafFront::kLeaf;
        ++marked.leaves;
      } else {
        st[ai] = LeafFront::kInternal;
        if (pai >= 0)
          out.deep[static_cast<std::size_t>(l - 1)]
                  [static_cast<std::size_t>(pai)] = 1;
      }
    }
  }
  return marked;
}

// The balance ripple and the canonical leaf enumeration of a front marked
// by mark_front.
void balance_front(const Hierarchy& hier, const ActiveLevels& act,
                   std::span<const Offset> near, LeafFront& out) {
  const int depth = out.depth;
  const int min_level = out.min_level;

  // Balance ripple: a leaf A at level la has a direct partner two or more
  // levels deeper exactly when some box X within `near` of A at level la
  // has an internal child (an internal box at la + 1 always has leaves at
  // la + 2 or below). So every flagged X splits the leaves among its near
  // boxes: the leaf turns internal, its active children become leaves, and
  // its parent becomes flagged. Levels run deep to shallow so a split's
  // upward effect lands in the same pass; the new leaves one level down
  // are checked by the next pass. Every split is forced in any balanced
  // refinement of the marked front, so the fixed point is the least
  // balanced refinement, whatever the visiting order.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int la = depth - 2; la >= min_level; --la) {
      const LevelActiveSet& lvl = act.levels[static_cast<std::size_t>(la)];
      const LevelActiveSet& kids =
          act.levels[static_cast<std::size_t>(la + 1)];
      auto& st = out.state[static_cast<std::size_t>(la)];
      auto& kst = out.state[static_cast<std::size_t>(la + 1)];
      const auto& deep = out.deep[static_cast<std::size_t>(la)];
      for (std::size_t xi = 0; xi < lvl.count(); ++xi) {
        if (deep[xi] == 0) continue;
        const BoxCoord x = hier.coord_of(la, lvl.boxes[xi]);
        for (const Offset& o : near) {
          const BoxCoord nb{x.ix + o.dx, x.iy + o.dy, x.iz + o.dz};
          if (!hier.in_bounds(la, nb)) continue;
          const std::int32_t ai = lvl.dense_to_active[hier.flat_index(la, nb)];
          if (ai < 0 || st[static_cast<std::size_t>(ai)] != LeafFront::kLeaf)
            continue;
          st[static_cast<std::size_t>(ai)] = LeafFront::kInternal;
          for (int oc = 0; oc < 8; ++oc) {
            const std::int32_t ki = kids.dense_to_active[hier.flat_index(
                la + 1, Hierarchy::child_of(nb, oc))];
            if (ki >= 0) kst[static_cast<std::size_t>(ki)] = LeafFront::kLeaf;
          }
          if (la > 0) {
            const LevelActiveSet& up =
                act.levels[static_cast<std::size_t>(la - 1)];
            const std::int32_t pai = up.dense_to_active[hier.flat_index(
                la - 1, Hierarchy::parent_of(nb))];
            out.deep[static_cast<std::size_t>(la - 1)]
                    [static_cast<std::size_t>(pai)] = 1;
          }
          changed = true;
        }
      }
    }
  }

  // Canonical enumeration: ascending (level, flat) — active lists are
  // already ascending per level.
  out.leaf_level.clear();
  out.leaf_flat.clear();
  out.max_leaf_level = min_level;
  for (int l = 0; l <= depth; ++l) {
    const LevelActiveSet& lvl = act.levels[static_cast<std::size_t>(l)];
    const auto& st = out.state[static_cast<std::size_t>(l)];
    auto& ids = out.leaf_id[static_cast<std::size_t>(l)];
    ids.assign(lvl.count(), -1);
    for (std::size_t ai = 0; ai < lvl.count(); ++ai) {
      if (st[ai] != LeafFront::kLeaf) continue;
      ids[ai] = static_cast<std::int32_t>(out.leaf_flat.size());
      out.leaf_level.push_back(l);
      out.leaf_flat.push_back(lvl.boxes[ai]);
      out.max_leaf_level = std::max(out.max_leaf_level, l);
    }
  }
}

}  // namespace

void build_leaf_front(const Hierarchy& hier, const ActiveLevels& act,
                      const std::vector<std::vector<std::uint32_t>>& counts,
                      int ncrit, int min_level, std::span<const Offset> near,
                      LeafFront& out) {
  mark_front(hier, act, counts, ncrit, min_level, out);
  balance_front(hier, act, near, out);
}

void build_front_levels(const Hierarchy& hier, const ActiveLevels& act,
                        const LeafFront& front, ActiveLevels& out,
                        std::vector<std::vector<std::uint8_t>>& out_leaf) {
  (void)hier;
  const int depth = front.max_leaf_level;
  out.depth = depth;
  const std::size_t nlev = static_cast<std::size_t>(depth) + 1;
  if (out.levels.size() < nlev) out.levels.resize(nlev);
  ensure_levels(out_leaf, nlev);
  for (int l = 0; l <= depth; ++l) {
    const LevelActiveSet& full = act.levels[static_cast<std::size_t>(l)];
    const auto& st = front.state[static_cast<std::size_t>(l)];
    LevelActiveSet& dst = out.levels[static_cast<std::size_t>(l)];
    auto& leaf = out_leaf[static_cast<std::size_t>(l)];
    dst.boxes.clear();
    leaf.clear();
    for (std::size_t ai = 0; ai < full.count(); ++ai) {
      if (st[ai] == LeafFront::kBelow) continue;
      dst.boxes.push_back(full.boxes[ai]);
      leaf.push_back(st[ai] == LeafFront::kLeaf ? 1 : 0);
    }
    dst.dense_to_active.assign(full.dense_to_active.size(), -1);
    for (std::size_t i = 0; i < dst.boxes.size(); ++i)
      dst.dense_to_active[dst.boxes[i]] = static_cast<std::int32_t>(i);
  }
  // Stale deeper levels from a previous (deeper) build must not count
  // toward total_active(); clearing keeps their capacity for reuse.
  for (std::size_t l = nlev; l < out.levels.size(); ++l) {
    out.levels[l].boxes.clear();
    out.levels[l].dense_to_active.clear();
  }
}

double RefinementCostParams::box_ns() const {
  // Interaction-list length: the children of the parent's near boxes minus
  // the box's own near boxes, 7 (2d+1)^3 (875 at d = 2); with supernodes
  // the d = 2 list of tree::supernode_interactive (189 entries).
  const double side = 2.0 * separation + 1.0;
  const double list = supernodes ? 189.0 : 7.0 * side * side * side;
  return (list + 2.0) * kTranslationNsPerEntry * static_cast<double>(k * k);
}

void apply_cost_model(const RefinementCostParams& params,
                      RefinementCost& cost) {
  const RefinementCostParams::NearRates near = params.near_rates();
  cost.seconds =
      1e-9 * (static_cast<double>(cost.near_pairs) * near.pair_ns +
              static_cast<double>(cost.leaf_calls) * near.call_ns +
              static_cast<double>(cost.tree_boxes) * params.box_ns());
}

RefinementCost front_cost(const Hierarchy& hier, const ActiveLevels& act,
                          const std::vector<std::vector<std::uint32_t>>& counts,
                          const LeafFront& front, std::span<const Offset> near,
                          std::span<const Offset> near_half,
                          const RefinementCostParams& params) {
  // The pairs of for_each_near_pair, counted box by box: a leaf counts its
  // self pairs and its same-level half-list partners; an internal box P
  // counts, once for all its leaf children, the coarse-fine pairs they own
  // (their parent-level scan is P's near scan).
  RefinementCost rc;
  for (int l = 0; l <= front.depth; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    const LevelActiveSet& lvl = act.levels[lu];
    const auto& st = front.state[lu];
    const auto& cnt = counts[lu];
    for (std::size_t ai = 0; ai < lvl.count(); ++ai) {
      if (st[ai] == LeafFront::kBelow) continue;
      ++rc.tree_boxes;
      if (l < front.min_level) continue;
      const BoxCoord b = hier.coord_of(l, lvl.boxes[ai]);
      if (st[ai] == LeafFront::kLeaf) {
        const std::uint64_t t = cnt[ai];
        rc.near_pairs += t * (t - 1) / 2;
        ++rc.leaf_calls;
        for (const Offset& o : near_half) {
          const BoxCoord nb{b.ix + o.dx, b.iy + o.dy, b.iz + o.dz};
          if (!hier.in_bounds(l, nb)) continue;
          const std::int32_t xi = lvl.dense_to_active[hier.flat_index(l, nb)];
          if (xi < 0 || st[static_cast<std::size_t>(xi)] != LeafFront::kLeaf)
            continue;
          rc.near_pairs += t * cnt[static_cast<std::size_t>(xi)];
          ++rc.leaf_calls;
        }
        continue;
      }
      // Internal: its leaf children's bodies, then the leaves near it.
      const LevelActiveSet& kids = act.levels[lu + 1];
      std::uint64_t kid_bodies = 0, kid_leaves = 0;
      for (int oc = 0; oc < 8; ++oc) {
        const std::int32_t ki = kids.dense_to_active[hier.flat_index(
            l + 1, Hierarchy::child_of(b, oc))];
        if (ki < 0 || front.state[lu + 1][static_cast<std::size_t>(ki)] !=
                          LeafFront::kLeaf)
          continue;
        kid_bodies += counts[lu + 1][static_cast<std::size_t>(ki)];
        ++kid_leaves;
      }
      if (kid_leaves == 0) continue;
      for (const Offset& o : near) {
        const BoxCoord nb{b.ix + o.dx, b.iy + o.dy, b.iz + o.dz};
        if (!hier.in_bounds(l, nb)) continue;
        const std::int32_t xi = lvl.dense_to_active[hier.flat_index(l, nb)];
        if (xi < 0 || st[static_cast<std::size_t>(xi)] != LeafFront::kLeaf)
          continue;
        rc.near_pairs += kid_bodies * cnt[static_cast<std::size_t>(xi)];
        rc.leaf_calls += kid_leaves;
      }
    }
  }
  apply_cost_model(params, rc);
  return rc;
}

RefinementCost uniform_cost(const Hierarchy& hier, const ActiveLevels& act,
                            const std::vector<std::vector<std::uint32_t>>& counts,
                            int h, std::span<const Offset> near_half,
                            const RefinementCostParams& params) {
  RefinementCost rc;
  for (int l = 0; l <= h; ++l)
    rc.tree_boxes += act.levels[static_cast<std::size_t>(l)].count();
  const LevelActiveSet& lvl = act.levels[static_cast<std::size_t>(h)];
  const auto& cnt = counts[static_cast<std::size_t>(h)];
  rc.leaf_calls = lvl.count();
  for (std::size_t ai = 0; ai < lvl.count(); ++ai) {
    const std::uint64_t t = cnt[ai];
    rc.near_pairs += t * (t - 1) / 2;
    const BoxCoord c = hier.coord_of(h, lvl.boxes[ai]);
    for (const Offset& o : near_half) {
      const BoxCoord nb{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
      if (!hier.in_bounds(h, nb)) continue;
      const std::int32_t si = lvl.dense_to_active[hier.flat_index(h, nb)];
      if (si < 0) continue;
      rc.near_pairs += t * cnt[static_cast<std::size_t>(si)];
      ++rc.leaf_calls;
    }
  }
  apply_cost_model(params, rc);
  return rc;
}

int select_uniform_depth(const Hierarchy& hier, const ActiveLevels& act,
                         const std::vector<std::vector<std::uint32_t>>& counts,
                         std::span<const Offset> near_half,
                         const RefinementCostParams& params, int min_level) {
  min_level = std::min(min_level, act.depth);
  int best = min_level;
  double best_seconds = 0.0;
  for (int h = min_level; h <= act.depth; ++h) {
    const RefinementCost c = uniform_cost(hier, act, counts, h, near_half,
                                          params);
    if (h == min_level || c.seconds < best_seconds) {
      best = h;
      best_seconds = c.seconds;
    }
  }
  return best;
}

int select_ncrit(const Hierarchy& hier, const ActiveLevels& act,
                 const std::vector<std::vector<std::uint32_t>>& counts,
                 std::span<const Offset> near,
                 std::span<const Offset> near_half,
                 const RefinementCostParams& params,
                 std::span<const int> candidates, int min_level,
                 std::span<LeafFront> fronts, ThreadPool* pool) {
  constexpr std::size_t kMaxCandidates = 16;
  const std::size_t n = candidates.size();
  if (n == 0) return 32;
  if (n > kMaxCandidates || fronts.empty())
    throw std::invalid_argument(
        "select_ncrit: 1..16 candidates and at least one front");
  const bool own = fronts.size() >= n;  // one front per candidate
  const RefinementCostParams::NearRates rates = params.near_rates();
  // Candidate i's modeled seconds, or its lower bound when that already
  // exceeds `bound`: the marked front's boxes and leaves before the ripple,
  // which only adds both, so such a candidate cannot be the minimum.
  const auto cost = [&](std::size_t i, double bound) {
    LeafFront& front = own ? fronts[i] : fronts[0];
    const MarkedCounts marked =
        mark_front(hier, act, counts, candidates[i], min_level, front);
    const double lower =
        1e-9 * (static_cast<double>(marked.boxes) * params.box_ns() +
                static_cast<double>(marked.leaves) * rates.call_ns);
    if (lower > bound) return lower;
    balance_front(hier, act, near, front);
    return front_cost(hier, act, counts, front, near, near_half, params)
        .seconds;
  };
  // The last (coarsest) candidate first: it is the cheapest to cost and
  // its time bounds the rest, whose fine fronts are often dismissed right
  // after marking. Whether a candidate is dismissed depends only on the
  // two costs, so the pick is the same on any path and worker count.
  double seconds[kMaxCandidates];
  seconds[n - 1] = cost(n - 1, std::numeric_limits<double>::infinity());
  const double bound = seconds[n - 1];
  if (own && pool != nullptr)
    pool->parallel_for(0, n - 1,
                       [&](std::size_t i) { seconds[i] = cost(i, bound); });
  else
    for (std::size_t i = 0; i + 1 < n; ++i) seconds[i] = cost(i, bound);
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (seconds[i] < seconds[best]) best = i;
  return candidates[best];
}

int select_ncrit(const Hierarchy& hier, const ActiveLevels& act,
                 const std::vector<std::vector<std::uint32_t>>& counts,
                 std::span<const Offset> near,
                 std::span<const Offset> near_half,
                 const RefinementCostParams& params,
                 std::span<const int> candidates, int min_level,
                 LeafFront& scratch) {
  return select_ncrit(hier, act, counts, near, near_half, params, candidates,
                      min_level, std::span<LeafFront>(&scratch, 1), nullptr);
}

}  // namespace hfmm::tree
