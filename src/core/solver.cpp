#include "hfmm/core/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "hfmm/dp/sort.hpp"
#include "hfmm/service/plan_cache.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "solver_internal.hpp"

namespace hfmm::core {

using internal::AppMatrix;
using internal::FmmPlan;
using internal::SolveWorkspace;
using internal::TranslationData;
using internal::UnionOffset;

namespace internal {

std::vector<UnionOffset> build_union_offsets(int d) {
  std::vector<UnionOffset> out;
  for (const tree::Offset& o : tree::sibling_union_offsets(d)) {
    UnionOffset u;
    u.o = o;
    const std::int32_t comps[3] = {o.dx, o.dy, o.dz};
    u.all_parities = true;
    for (int axis = 0; axis < 3; ++axis) {
      std::uint8_t mask = 0;
      if (comps[axis] >= -2 * d && comps[axis] <= 2 * d + 1) mask |= 1;  // p=0
      if (comps[axis] >= -2 * d - 1 && comps[axis] <= 2 * d) mask |= 2;  // p=1
      u.valid_parity[axis] = mask;
      if (mask != 3) u.all_parities = false;
    }
    out.push_back(u);
  }
  return out;
}

std::shared_ptr<const TranslationData> TranslationData::build(
    const FmmConfig& config) {
  WallTimer t;
  auto trans = std::make_shared<TranslationData>();
  trans->tset = std::make_unique<anderson::TranslationSet>(
      config.params, config.separation, config.supernodes);
  for (int o = 0; o < 8; ++o) {
    trans->t1[o].set(trans->tset->t1(o));
    trans->t3[o].set(trans->tset->t3(o));
  }
  trans->union_offsets = build_union_offsets(config.separation);
  trans->t2.resize(tree::offset_cube_size(config.separation));
  for (const UnionOffset& u : trans->union_offsets)
    trans->t2[tree::offset_cube_index(u.o, config.separation)].set(
        trans->tset->t2(u.o));
  if (config.supernodes) {
    for (int o = 0; o < 8; ++o) {
      const auto& entries = trans->tset->supernode_list(o);
      trans->supernode[o].resize(entries.size());
      for (std::size_t e = 0; e < entries.size(); ++e) {
        if (entries[e].source_level_up == 1)
          trans->supernode[o][e].set(trans->tset->supernode_t2(o, e));
      }
    }
  }
  trans->build_seconds = t.seconds();
  return trans;
}

std::shared_ptr<const FmmPlan> FmmPlan::build(
    std::shared_ptr<const TranslationData> trans, const FmmConfig& config,
    int depth) {
  WallTimer t;
  auto plan = std::make_shared<FmmPlan>();
  plan->trans = std::move(trans);
  plan->kernel = config.kernel.type;
  plan->depth = depth;
  plan->k = config.params.k();
  // Short-range plans (trans == nullptr) carry only the near-field lists;
  // the supernode gather plans exist to drive translations that never run.
  if (config.supernodes && plan->trans) {
    plan->supernode_plans.resize(depth + 1);
    for (int l = 2; l <= depth; ++l)
      plan->supernode_plans[l] = build_supernode_plan(
          *plan->trans, config.separation, std::int32_t{1} << l);
  }
  plan->near_offsets = tree::near_field_offsets(config.separation);
  plan->near_half_offsets = tree::near_field_half_offsets(config.separation);
  plan->build_seconds = t.seconds();
  return plan;
}

}  // namespace internal

const TranslationData& FmmSolver::Impl::translation_data(
    const FmmConfig& config, bool* built) {
  if (built != nullptr) *built = false;
  if (!trans) {
    if (cache) {
      bool hit = false;
      trans = cache->translations(config, &hit);
      if (built != nullptr) *built = !hit;
    } else {
      trans = TranslationData::build(config);
      if (built != nullptr) *built = true;
    }
  }
  return *trans;
}

const FmmPlan& FmmSolver::Impl::plan_for(const FmmConfig& config, int depth,
                                         PhaseBreakdown& breakdown) {
  if (plan && plan->depth == depth && plan->kernel == config.kernel.type)
    return *plan;
  ScopedPhaseTimer timer(breakdown["plan"]);
  if (cache) {
    bool hit = false;
    plan = cache->plan(config, depth, &hit);
    // A cache hit is a reuse, not a build: warm-path accounting
    // (plan_reused, zero plan allocs) holds from this client's very first
    // solve when another client already built the plan.
    if (hit)
      breakdown["plan"].plan_reuse += 1;
    else
      breakdown["plan"].allocs += 1;
  } else {
    plan = FmmPlan::build(trans, config, depth);
    breakdown["plan"].allocs += 1;
  }
  return *plan;
}

FmmSolver::FmmSolver(FmmConfig config)
    : FmmSolver(std::move(config), nullptr) {}

FmmSolver::FmmSolver(FmmConfig config,
                     std::shared_ptr<service::PlanCache> cache)
    : config_(std::move(config)), impl_(std::make_unique<Impl>()) {
  impl_->cache = std::move(cache);
  config_.validate();
  hierarchy_requested_ = config_.hierarchy;
  if (config_.mode == ExecutionMode::kDistributed) {
    // Owner-computes execution (DESIGN.md Section 18) runs on the sparse
    // active-box machinery — ownership and the LET are defined over the
    // active level sets — and requires the non-symmetric near field so every
    // target's contributions accumulate on the owning rank in the fixed
    // offset order (the bitwise-identity requirement; the symmetric half
    // list would write both sides of a pair, which crosses rank boundaries).
    config_.hierarchy = HierarchyMode::kSparse;
    config_.near_symmetry = false;
  }
  if (!config_.kernel.far_field_capable()) {
    // Short-range kernels run on the uniform-leaf executors; the adaptive
    // leaf front has no U-list notion of a cutoff sphere, so degrade it to
    // the occupancy-based auto selection.
    if (config_.hierarchy == HierarchyMode::kAdaptive)
      config_.hierarchy = HierarchyMode::kAuto;
    impl_->vdw.build(config_.kernel);
    impl_->near.type = config_.kernel.type;
    impl_->near.soft2 = 0.0;
    impl_->near.vdw = impl_->vdw.params;
  } else {
    impl_->near = NearKernel{config_.kernel.softening};
  }
  // Pool selection happens once here, not per solve: sequential mode owns a
  // one-thread pool; the parallel modes share the process-global pool.
  if (config_.mode == ExecutionMode::kSequential) {
    impl_->seq_pool = std::make_unique<ThreadPool>(1);
    impl_->pool = impl_->seq_pool.get();
  } else {
    impl_->pool = &ThreadPool::global();
  }
}

FmmSolver::~FmmSolver() = default;

const anderson::TranslationSet& FmmSolver::translations() {
  return *impl_->translation_data(config_).tset;
}

int depth_for(const FmmConfig& config_, std::size_t n) {
  if (config_.depth >= 0) return config_.depth;
  if (config_.hierarchy == HierarchyMode::kAdaptive &&
      config_.mode != ExecutionMode::kDataParallel) {
    // Refinement CAP for the adaptive leaf front (DESIGN.md Section 15):
    // sort ~two levels deeper than the ~1-body-per-leaf depth so dense
    // cluster cores can keep splitting — the ncrit front, not this cap,
    // decides the actual leaf sizes. (The data-parallel executor has no
    // adaptive path; it treats kAdaptive as sparse masking at the normal
    // occupancy depth.)
    return std::clamp(tree::optimal_depth(n, 1.0) + 2, 3,
                      config_.adaptive_max_depth);
  }
  double occupancy = config_.particles_per_leaf;
  if (occupancy <= 0.0) {
    // Balance near-field (~occupancy^2) against traversal (~K^2 per box,
    // 4.6x less with supernodes); calibrated with bench_depth.
    occupancy = 0.75 * static_cast<double>(config_.params.k());
    if (config_.supernodes) occupancy *= 0.45;
    occupancy = std::clamp(occupancy, 8.0, 128.0);
  }
  int h = std::max(2, tree::optimal_depth(n, occupancy));
  if (!config_.kernel.far_field_capable()) {
    // Cutoff-coverage cap: the U-list reaches d leaf boxes, so with leaf
    // side s every pair within r < cutoff is covered when s >= cutoff / 2
    // (a per-axis box offset over such a pair is at most 2), i.e.
    // h <= floor(log2(2 * side / cutoff)). validate() guarantees
    // cutoff <= side / 4, so the cap is always >= 3. Periodic solves
    // additionally need >= 8 boxes per side so the +-2 wrapped offsets stay
    // distinct modulo the box count.
    const double side = config_.kernel.vdw_box.max_side();
    const int cap = static_cast<int>(
        std::floor(std::log2(2.0 * side / config_.kernel.vdw_cutoff)));
    h = std::min(h, cap);
    h = std::max(h, config_.kernel.vdw_periodic ? 3 : 2);
  }
  return h;
}

int FmmSolver::depth_for(std::size_t n) const {
  return core::depth_for(config_, n);
}

bool FmmSolver::plan_ready(std::size_t n) const {
  return impl_->plan != nullptr && impl_->plan->depth == depth_for(n);
}

namespace internal {

namespace {

// Floor/ceil division by 2 that stays correct for negative numerators (C++
// integer division truncates toward zero, which would admit out-of-bounds
// sources near the low domain boundary).
constexpr std::int32_t floor_div2(std::int32_t a) {
  return (a >= 0) ? a / 2 : -((-a + 1) / 2);
}
constexpr std::int32_t ceil_div2(std::int32_t a) { return floor_div2(a + 1); }

}  // namespace

SupernodeLevelPlan build_supernode_plan(const TranslationData& trans,
                                        int separation,
                                        std::int32_t n_child) {
  SupernodeLevelPlan plan;
  const std::int32_t np = n_child / 2;
  for (int octant = 0; octant < 8; ++octant) {
    const std::int32_t ov[3] = {octant & 1, (octant >> 1) & 1,
                                (octant >> 2) & 1};
    const auto& entries = trans.tset->supernode_list(octant);
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const tree::SupernodeEntry& entry = entries[e];
      SupernodePlanEntry pe;
      pe.offset = entry.offset;
      pe.parent_source = entry.source_level_up == 1;
      const std::int32_t off[3] = {entry.offset.dx, entry.offset.dy,
                                   entry.offset.dz};
      bool empty = false;
      for (int axis = 0; axis < 3; ++axis) {
        if (pe.parent_source) {
          // Source p + off must lie in [0, np).
          pe.lo[axis] = std::max(0, -off[axis]);
          pe.hi[axis] = std::min(np, np - off[axis]);
        } else {
          // Source 2p + ov + off must lie in [0, n_child).
          pe.lo[axis] = std::max(0, ceil_div2(-(ov[axis] + off[axis])));
          pe.hi[axis] = std::min(
              np, floor_div2(n_child - 1 - ov[axis] - off[axis]) + 1);
        }
        if (pe.lo[axis] >= pe.hi[axis]) empty = true;
      }
      if (empty) continue;
      pe.matrix = pe.parent_source
                      ? &trans.supernode[octant][e]
                      : &trans.t2[tree::offset_cube_index(entry.offset,
                                                          separation)];
      plan.per_octant[octant].push_back(pe);
    }
  }
  return plan;
}

}  // namespace internal

FmmResult FmmSolver::solve(const ParticleSet& particles) {
  return solve_impl_(particles, nullptr);
}

FmmResult FmmSolver::solve(const ParticleSet& particles, SolveView& view) {
  view = SolveView{};
  return solve_impl_(particles, &view);
}

FmmResult FmmSolver::solve_impl_(const ParticleSet& particles,
                                 SolveView* view) {
  // A non-finite coordinate would reach the float-to-int leaf index of the
  // sort (undefined behaviour), and a non-finite charge would poison every
  // field; every front end solves through here.
  for (const std::span<const double> a :
       {particles.x(), particles.y(), particles.z(), particles.q()})
    for (const double v : a)
      if (!std::isfinite(v))
        throw std::invalid_argument(
            "FmmSolver::solve: non-finite particle coordinate or charge");
  const std::size_t n = particles.size();
  const bool far_capable = config_.kernel.far_field_capable();
  FmmResult result;
  result.k = config_.params.k();
  result.kernel = config_.kernel.type;
  result.hierarchy_requested = hierarchy_requested_;
  result.hierarchy_effective = config_.hierarchy;
  // Cold-path construction, charged to the solve that triggers it: the
  // translation set ("precompute", config-wide) and the per-depth plan
  // ("plan"). Warm solves reuse both and report zero here. Short-range
  // kernels have no translation machinery at all; the phase stays visible
  // with zeros.
  if (far_capable) {
    bool built = false;
    impl_->translation_data(config_, &built);
    if (built) {
      result.breakdown["precompute"].seconds = impl_->trans->build_seconds;
      result.breakdown["precompute"].allocs += 1;
    } else {
      result.breakdown["precompute"];  // phase visible with zeros
    }
  } else {
    result.breakdown["precompute"];  // phase visible with zeros
  }
  if (n == 0) return result;

  const int h = depth_for(n);
  result.depth = h;
  result.leaf_boxes = std::size_t{1} << (3 * h);
  impl_->plan_for(config_, h, result.breakdown);
  result.breakdown["plan"];  // phase visible with zeros on warm solves
  result.plan_reused = result.breakdown["plan"].allocs == 0;

  SolveWorkspace& ws = impl_->ws;
  internal::StepCache& step = ws.step;

  // Incremental stepping (DESIGN.md Section 14): when enabled and the
  // previous solve's sort state is reusable (same n and depth, new bounds
  // still inside the pinned root cube), keep the previous cube so box keys
  // are comparable across steps and the sort can be repaired by diff.
  const bool step_enabled = config_.step_incremental &&
                            config_.mode != ExecutionMode::kDataParallel;
  step.cur_counts_changed = true;
  step.cur_emptiness_changed = true;
  const bool steppable =
      step_enabled && step.valid && step.n == n && step.depth == h;
  Box3 cube;
  if (!far_capable) {
    // Short-range solves pin the root cube to the kernel's domain box:
    // geometry (leaf side vs. cutoff, and the periodic wrap's box grid) is
    // fixed at construction and identical across steps, so incremental
    // stepping never loses the cube. Particles are expected to stay inside
    // vdw_box (the LJ integrator loop wraps or reflects them there).
    cube = tree::cube_containing(config_.kernel.vdw_box);
    step.cur_incremental = steppable;
  } else {
    // The hierarchy's root cube is the only per-solve geometry (particles
    // move); it is an O(1) object and all plan structure is expressed in
    // box-side units, so the plan stays valid across solves.
    const Box3 b = particles.bounds();
    step.cur_incremental =
        steppable && step.cube.contains(b.lo) && step.cube.contains(b.hi);
    cube = step.cur_incremental ? step.cube : tree::cube_containing(b);
  }
  if (!step.cur_incremental) {
    step.active_valid = false;
    step.cost_valid = false;
  }
  const tree::Hierarchy hier(cube, h);

  ws.begin_solve();

  if (config_.mode == ExecutionMode::kDataParallel)
    return solve_dp_(particles, hier, std::move(result));

  // Layout with a single VU: the coordinate-sort key has no VU bits and is
  // the Morton code of the leaf, so every box at every level is one
  // contiguous range of the sorted particles.
  const dp::MachineConfig one_vu{1, 1, 1};
  const dp::BlockLayout layout(hier.boxes_per_side(h), one_vu);

  // The coordinate sort runs before the executor builds its graph: every
  // executor derives its active sets from the leaf occupancy (DESIGN.md
  // Section 13), and an incremental step's sort diff drives the StepCache
  // revalidation. The
  // graph's sort stage is then a no-op. Short-range kernels read the
  // per-particle type array in SORTED order; inputs without a type channel
  // get the all-zeros single-type array. The pointer is re-bound after
  // every sort because the sorted buffers can reallocate when the
  // workspace grows.
  bool sort_repaired = false;
  {
    ScopedPhaseTimer timer(result.breakdown["sort"]);
    if (step.cur_incremental) {
      const dp::StepSortResult sr = dp::coordinate_sort_step(
          particles, hier, layout, config_.step_mover_threshold, ws.boxed,
          ws.sort_scratch);
      result.breakdown["sort"].movers += sr.movers;
      if (sr.repaired) {
        result.breakdown["sort"].plan_reuse += 1;
        sort_repaired = true;
      }
      step.cur_counts_changed = sr.counts_changed;
      step.cur_emptiness_changed = sr.emptiness_changed;
    } else {
      dp::coordinate_sort(particles, hier, layout, ws.boxed,
                          &ws.sort_scratch);
    }
  }
  if (!far_capable) {
    ws.boxed.sorted.ensure_types();
    impl_->near.types = ws.boxed.sorted.type().data();
  }
  // The occupied leaf list only changes when some box flips empty <->
  // non-empty; an incremental step whose diff says otherwise keeps it.
  if (!(step.cur_incremental && !step.cur_emptiness_changed)) {
    const std::size_t cap_before = ws.occupied.capacity();
    ws.occupied.clear();
    const std::size_t ranks = ws.boxed.box_begin.size() - 1;
    for (std::size_t r = 0; r < ranks; ++r)
      if (ws.boxed.box_begin[r + 1] > ws.boxed.box_begin[r])
        ws.occupied.push_back(ws.boxed.rank_to_flat[r]);
    if (ws.occupied.capacity() != cap_before)
      ws.allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (config_.mode == ExecutionMode::kDistributed)
    return solve_dist_(particles, hier, std::move(result), view,
                       sort_repaired);
  if (config_.hierarchy == HierarchyMode::kAdaptive)
    return solve_adaptive_(particles, hier, std::move(result), view,
                           sort_repaired);
  return solve_sparse_(particles, hier, std::move(result), view,
                       sort_repaired);
}

}  // namespace hfmm::core
