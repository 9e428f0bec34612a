#pragma once
// Internal machinery shared by the shared-memory executor (solver.cpp) and
// the data-parallel executor (solver_dp.cpp). Not installed.
//
// The solve path is layered into (DESIGN.md Section 11):
//   * TranslationData — translation matrices in application-ready form,
//     position- and depth-independent, built once per config;
//   * FmmPlan — the immutable per-(config, depth) solve plan: supernode
//     gather plans per level, near-field interaction lists, level-store
//     shapes. Shared by reference across all three execution modes and
//     across solve() calls;
//   * SolveWorkspace — every mutable buffer a solve touches (sorted
//     particles, far/local level stores, per-chunk scratch arenas,
//     near-field scratch), reused across solve() calls so a warm solve
//     performs no plan construction and ~zero heap growth.

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hfmm/anderson/translations.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/active_set.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/tree/refinement.hpp"

namespace hfmm::core::internal {

// An application-ready translation matrix: `t` is the paper's T (row j
// produces destination point j), `tt` its transpose. Aggregated application
// treats box-major data G[nb x K] as C = G * T^T, so BLAS-3 paths use `tt`;
// per-box BLAS-2 uses `t` directly.
struct AppMatrix {
  const double* t = nullptr;
  std::vector<double> tt;
  std::size_t k = 0;

  void set(const anderson::TranslationMatrix& m) {
    t = m.data();
    k = m.k;
    tt.resize(k * k);
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t i = 0; i < k; ++i) tt[i * k + j] = m.m[j * k + i];
  }
};

// One union interactive-field offset plus its per-axis parity admissibility
// (paper Section 3.3.2: sibling ranges [-2d-p, 2d+1-p] per axis).
struct UnionOffset {
  tree::Offset o;
  std::array<std::uint8_t, 3> valid_parity;  // bit p: parity p admissible
  bool all_parities = false;
};

std::vector<UnionOffset> build_union_offsets(int separation);

// ---------------------------------------------------------------------------
// TranslationData: the position-independent translation machinery — built
// once per config, shared (by shared_ptr) by every FmmPlan depth.
// ---------------------------------------------------------------------------

struct TranslationData {
  std::unique_ptr<anderson::TranslationSet> tset;
  std::array<AppMatrix, 8> t1, t3;
  // T2 application matrices by offset-cube index (built for union offsets).
  std::vector<AppMatrix> t2;
  std::vector<UnionOffset> union_offsets;
  // Supernode application matrices per octant, aligned with
  // tset->supernode_list(octant).
  std::array<std::vector<AppMatrix>, 8> supernode;
  double build_seconds = 0.0;

  static std::shared_ptr<const TranslationData> build(const FmmConfig& config);
};

// Gather plan for the supernode interactive phase (paper Section 2.3) at one
// level. The geometry is translation-invariant, so for a fixed octant and
// supernode entry the set of parent boxes whose child target AND source are
// both in bounds is always an axis-aligned rectangle of parent coordinates —
// [lo, hi) per axis below compresses the per-box in-bounds source index
// lists the solver would otherwise rebuild (and branch on) per box. Entries
// whose rectangle is empty at this level are dropped at build time.
struct SupernodePlanEntry {
  const AppMatrix* matrix = nullptr;  // T2 (same level) or supernode matrix
  tree::Offset offset;                // source offset, source-level box units
  bool parent_source = false;         // source lives at level l - 1
  std::int32_t lo[3] = {0, 0, 0};     // parent-coord rect, [lo, hi) per axis
  std::int32_t hi[3] = {0, 0, 0};
};

struct SupernodeLevelPlan {
  std::array<std::vector<SupernodePlanEntry>, 8> per_octant;
};

// Builds the plan for a level with `n_child` boxes per side (>= 4).
SupernodeLevelPlan build_supernode_plan(const TranslationData& trans,
                                        int separation, std::int32_t n_child);

// ---------------------------------------------------------------------------
// FmmPlan: the immutable per-(config, depth) solve plan. Everything in here
// is position-independent structure (paper Sections 2.3, 3.3.4): the
// translation set, the per-level supernode gather plans, and the near-field
// interaction lists. The hierarchy's root cube is the only geometry derived
// per solve (particles move), and it is an O(1) object — translation
// matrices are expressed in box-side units, so they are scale-invariant.
// ---------------------------------------------------------------------------

struct FmmPlan {
  // Null for short-range kernels: their plans carry only the near-field
  // interaction lists, and FmmPlan::build skips the supernode machinery.
  std::shared_ptr<const TranslationData> trans;
  // Plans are keyed by kernel (as well as depth) so a future plan cache can
  // be multi-tenant across workloads; plan_for rebuilds on a mismatch.
  KernelType kernel = KernelType::kLaplace3d;
  int depth = 0;
  std::size_t k = 0;
  // Supernode gather plans indexed by level (empty when supernodes are off;
  // levels < 2 unused).
  std::vector<SupernodeLevelPlan> supernode_plans;
  // Near-field interaction lists (full and the Newton-3rd-law half list).
  std::vector<tree::Offset> near_offsets;
  std::vector<tree::Offset> near_half_offsets;
  double build_seconds = 0.0;

  std::span<const tree::Offset> near_list(bool symmetric) const {
    return symmetric ? std::span<const tree::Offset>(near_half_offsets)
                     : std::span<const tree::Offset>(near_offsets);
  }

  /// Heap footprint of the plan-owned structures (supernode gather plans +
  /// interaction lists; the shared TranslationData is counted by its own
  /// cache slot, not per plan). The plan cache's memory budget charges this.
  std::size_t memory_bytes() const {
    std::size_t b = sizeof(FmmPlan);
    for (const SupernodeLevelPlan& lp : supernode_plans)
      for (const auto& oct : lp.per_octant)
        b += oct.capacity() * sizeof(SupernodePlanEntry);
    b += near_offsets.capacity() * sizeof(tree::Offset);
    b += near_half_offsets.capacity() * sizeof(tree::Offset);
    return b;
  }

  static std::shared_ptr<const FmmPlan> build(
      std::shared_ptr<const TranslationData> trans, const FmmConfig& config,
      int depth);
};

// Per-solver van der Waals state: the ntypes^2 pair tables (combining rules
// applied once at solver construction) plus the derived switching constants,
// packaged as the VdwParams the near field hands to pkern.
struct VdwTables {
  std::vector<double> rmin2, eps;
  pkern::VdwParams params{};

  void build(const KernelSpec& spec) {
    const std::size_t nt = spec.vdw_types();
    rmin2.resize(nt * nt);
    eps.resize(nt * nt);
    for (std::size_t i = 0; i < nt; ++i) {
      for (std::size_t j = 0; j < nt; ++j) {
        const double rm = 0.5 * (spec.vdw_rmin[i] + spec.vdw_rmin[j]);
        rmin2[i * nt + j] = rm * rm;
        eps[i * nt + j] = std::sqrt(spec.vdw_epsilon[i] * spec.vdw_epsilon[j]);
      }
    }
    params.rmin2 = rmin2.data();
    params.eps = eps.data();
    params.ntypes = nt;
    params.cuton2 = spec.vdw_cuton * spec.vdw_cuton;
    params.cutoff2 = spec.vdw_cutoff * spec.vdw_cutoff;
    params.cm3o = params.cutoff2 - 3.0 * params.cuton2;
    const double denom = params.cutoff2 - params.cuton2;
    params.inv_denom = 1.0 / (denom * denom * denom);
    params.inv_denom6 = 6.0 * params.inv_denom;
    if (spec.vdw_periodic) {
      params.period = spec.vdw_box.max_side();
      params.inv_period = 1.0 / params.period;
    } else {
      params.period = 0.0;
      params.inv_period = 0.0;
    }
  }
};

// ---------------------------------------------------------------------------
// SolveWorkspace: every mutable buffer of a solve, reused across calls.
// ---------------------------------------------------------------------------

// Grows `v` to `n` elements, counting a heap-growth event when the current
// capacity does not cover the request (the warm-solve allocation counter).
template <typename T>
void grow(std::vector<T>& v, std::size_t n,
          std::atomic<std::uint64_t>& allocs) {
  if (v.capacity() < n) allocs.fetch_add(1, std::memory_order_relaxed);
  v.resize(n);
}

// Per-chunk gather scratch of the translation stages (BlockTranslator in
// sparse_chunks.hpp): a gather block's target list, the targets that have a
// source under the current matrix, and the gathered source and product
// slabs. Slots are keyed by the stage's chunk index (stable across runs,
// handed to the body by the exec scheduler) and persist across stages and
// solve() calls. Stages that share the arena must not run concurrently
// (graph edges serialize the far-field chain); distinct chunks of one stage
// touch distinct slots.
struct ChunkSlot {
  std::vector<std::uint32_t> targets, rows;
  std::vector<double> src, out;
};

class ChunkArena {
 public:
  // Call once, serially, before any stage uses the arena.
  void ensure(std::size_t chunks, std::atomic<std::uint64_t>& allocs) {
    if (slots_.size() < chunks) {
      allocs.fetch_add(1, std::memory_order_relaxed);
      slots_.resize(chunks);
    }
  }
  ChunkSlot& slot(std::size_t chunk) { return slots_[chunk]; }
  std::size_t capacity_bytes() const {
    std::size_t b = 0;
    for (const ChunkSlot& s : slots_)
      b += (s.targets.capacity() + s.rows.capacity()) * sizeof(std::uint32_t) +
           (s.src.capacity() + s.out.capacity()) * sizeof(double);
    return b;
  }

 private:
  std::vector<ChunkSlot> slots_;
};

// Cross-solve incremental-stepping state (DESIGN.md Section 14). The
// durable fields describe the sort state ws.boxed/ws.sort_scratch carry
// from the previous solve: while n and depth match and the new bounds stay
// inside the pinned root cube, the next solve may diff against it instead
// of rebuilding. The cur_* fields are per-solve transients — solve() sets
// them from the sort diff before dispatching, and the sparse executor reads
// them to decide what to revalidate.
struct StepCache {
  bool valid = false;  ///< ws.boxed holds a steppable previous sort
  std::size_t n = 0;
  int depth = -1;
  Box3 cube;  ///< pinned hierarchy root cube
  bool active_valid = false;  ///< ws.active matches ws.boxed's occupancy
  bool cost_valid = false;    ///< ws.leaf_cost/near_cost match ws.boxed
  // Per-solve transients (set by solve(), read by solve_sparse_).
  bool cur_incremental = false;  ///< this solve stepped from the cache
  bool cur_counts_changed = true;
  bool cur_emptiness_changed = true;

  // Records the sort state a solve leaves for the next step, and whether
  // ws.active / ws.leaf_cost+near_cost describe that sort.
  void remember(std::size_t n_solved, const tree::Hierarchy& hier,
                bool active_ok, bool cost_ok) {
    valid = true;
    n = n_solved;
    depth = hier.depth();
    cube = hier.root();
    active_valid = active_ok;
    cost_valid = cost_ok;
  }
};

struct SolveWorkspace {
  // Box-major level stores: far/local potential vectors for every box of
  // every level, [level][flat_box * K + i]. Grown once, zeroed per solve.
  std::vector<std::vector<double>> far, local;
  // Sorted particle buffers (coordinate-sort output, reused in place).
  dp::BoxedParticles boxed;
  dp::SortScratch sort_scratch;
  // Per-particle results in sorted order.
  std::vector<double> phi_sorted;
  std::vector<Vec3> grad_sorted;
  // Near-field per-chunk write windows.
  NearFieldScratch near_scratch;
  // Per-chunk gather scratch for the translation phases.
  ChunkArena arena;
  // Uniform-leaf executor state: occupied leaf flats (sort output, in
  // sort-rank = Morton order) and the derived active-box level sets.
  // Rebuilt per solve (particles move), buffers reused — a warm solve grows
  // nothing here.
  std::vector<std::uint32_t> occupied;
  tree::ActiveLevels active;
  // Cost-model weights for cost-balanced chunk splits: leaf = particle
  // counts per active leaf (active-index order), near = near-field pair
  // counts per near item (the near stage's Morton order: ws.occupied on
  // the uniform-leaf executors, near_leaves on the adaptive one). near_pos
  // maps each active leaf to its position in ws.occupied.
  std::vector<std::uint64_t> leaf_cost, near_cost;
  std::vector<std::uint32_t> near_pos;
  // Incremental-stepping cache plus the scratch list of active leaf indices
  // whose cost entries the per-step patch recomputes.
  StepCache step;
  std::vector<std::uint32_t> cost_patch;
  // Adaptive leaf-front executor state (DESIGN.md Section 15): per-fine-leaf
  // body counts, subtree counts, the marked front (plus the ncrit selector's
  // per-rung fronts), the pruned refined-tree level sets with their leaf
  // flags, and the U-list plan in canonical leaf order — leaf_bounds holds
  // each front leaf's sorted particle range ([begin, end) pairs), pair_begin
  // is a CSR over front leaves into pair_leaf (partner leaf ids). All
  // reused across solves. near_leaves lists the front leaf ids by ascending
  // particle range, the adaptive near stage's Morton order.
  std::vector<std::uint32_t> leaf_counts;
  std::vector<std::vector<std::uint32_t>> subtree_counts;
  tree::LeafFront front;
  std::vector<tree::LeafFront> rung_fronts;  // one per cost-model ladder rung
  tree::ActiveLevels pruned;
  std::vector<std::vector<std::uint8_t>> pruned_leaf;
  std::vector<std::uint32_t> leaf_bounds, pair_begin, pair_leaf, near_leaves;
  // Heap-growth events since begin_solve() (reported as workspace allocs).
  std::atomic<std::uint64_t> allocs{0};

  void begin_solve() { allocs.store(0, std::memory_order_relaxed); }

  // Grows the level stores of the active boxes of every level of `act` and
  // zeroes them: [level][active_index * K + i], |active_l| * K values per
  // level instead of the full grid's 8^l * K.
  void prepare_levels(const tree::ActiveLevels& act, std::size_t k) {
    const std::size_t levels = static_cast<std::size_t>(act.depth) + 1;
    if (far.size() < levels) {
      allocs.fetch_add(1, std::memory_order_relaxed);
      far.resize(levels);
      local.resize(levels);
    }
    for (std::size_t l = 0; l < levels; ++l) {
      const std::size_t boxes = act.levels[l].count();
      grow(far[l], boxes * k, allocs);
      grow(local[l], boxes * k, allocs);
      std::fill(far[l].begin(), far[l].end(), 0.0);
      std::fill(local[l].begin(), local[l].end(), 0.0);
    }
  }

  // Heap footprint (capacities) of the buffers a solve touches; reported as
  // FmmResult::workspace_bytes so benchmarks can compare executors.
  std::size_t workspace_bytes() const {
    auto cap = [](const auto& v) {
      return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    };
    std::size_t total = 0;
    for (const auto& v : far) total += cap(v);
    for (const auto& v : local) total += cap(v);
    total += cap(phi_sorted) + cap(grad_sorted) + arena.capacity_bytes();
    total += cap(occupied) + cap(leaf_cost) + cap(near_cost) + cap(near_pos);
    total += active.capacity_bytes();
    total += cap(leaf_counts) + cap(leaf_bounds) + cap(pair_begin) +
             cap(pair_leaf) + cap(near_leaves);
    for (const auto& v : subtree_counts) total += cap(v);
    for (const auto& v : pruned_leaf) total += cap(v);
    total += front.capacity_bytes() + pruned.capacity_bytes();
    for (const auto& f : rung_fronts) total += f.capacity_bytes();
    for (const auto& ch : near_scratch.chunks) total += ch.capacity_bytes();
    total += boxed.sorted.size() * 4 * sizeof(double);
    total += cap(boxed.box_begin) + cap(boxed.perm) + cap(boxed.box_of) +
             cap(boxed.rank_to_flat) + cap(boxed.flat_to_rank);
    return total;
  }

  void prepare_outputs(std::size_t n, bool with_gradient) {
    grow(phi_sorted, n, allocs);
    std::fill(phi_sorted.begin(), phi_sorted.end(), 0.0);
    if (with_gradient) {
      grow(grad_sorted, n, allocs);
      std::fill(grad_sorted.begin(), grad_sorted.end(), Vec3{});
    } else {
      grad_sorted.clear();
    }
  }
};

// Rebuilds the active level sets ws.active from ws.occupied, unless an
// incremental step flipped no box empty <-> non-empty and the cached sets
// still match the sort — a reuse counted on `active`. Defined in
// solver_sparse.cpp, like the helper below.
void refresh_active_levels(const tree::Hierarchy& hier, SolveWorkspace& ws,
                           PhaseStats& active);

// Derives/revalidates the sparse active level sets (ws.active) and the
// per-leaf cost model (ws.leaf_cost / ws.near_cost / ws.near_pos) from the
// sort output in ws.boxed/ws.occupied — the "active" phase, shared by the
// uniform-leaf and distributed executors — and records the sets' occupancy
// (level_occupancy, active_boxes, the phase's box counts) on `result`.
// Reads the step-cache transients to pick between full rebuild,
// diff-driven patch, and reuse. `periodic` selects wrapped neighbour
// counting (periodic vdW).
void update_active_costs(const FmmConfig& config, const FmmPlan& plan,
                         const tree::Hierarchy& hier, bool periodic,
                         SolveWorkspace& ws, FmmResult& result);

// Distributed-executor state (partition, LET plan, per-rank workspaces);
// defined in solver_dist.cpp and owned via shared_ptr so Impl's destructor
// needs no complete type here.
struct DistState;

// Fills a SolveView from the workspace's sorted buffers; no-op when the
// caller did not request streaming. Shared by the shared-memory executors
// (the DP executor does not stream).
inline void publish_view(const SolveWorkspace& ws, const FmmConfig& config,
                         std::size_t n, SolveView* view) {
  if (view == nullptr || n == 0) return;
  view->phi = std::span<const double>{ws.phi_sorted.data(), n};
  if (config.with_gradient)
    view->grad = std::span<const Vec3>{ws.grad_sorted.data(), n};
  view->perm = std::span<const std::uint32_t>{ws.boxed.perm.data(), n};
  view->q = std::span<const double>{ws.boxed.sorted.q().data(), n};
}

}  // namespace hfmm::core::internal

namespace hfmm::core {

struct FmmSolver::Impl {
  // Shared plan cache when this solver is a service client (null for a
  // solitary solver, which keeps the private slots below as its "cache").
  std::shared_ptr<service::PlanCache> cache;
  std::shared_ptr<const internal::TranslationData> trans;
  std::shared_ptr<const internal::FmmPlan> plan;
  internal::SolveWorkspace ws;
  // Sequential mode runs on a private one-thread pool owned by the solver
  // (selected once at construction, not per solve); the other modes use the
  // process-global pool.
  std::unique_ptr<ThreadPool> seq_pool;
  ThreadPool* pool = nullptr;
  // Short-range kernel state, built once in the FmmSolver ctor. `near`
  // points into `vdw`'s tables for van der Waals; for Laplace it just
  // carries softening^2. Every executor hands `near` to the near-field
  // chunk bodies (the solver re-binds near.types to the sorted type array
  // each solve, since the workspace buffer can reallocate on growth).
  internal::VdwTables vdw;
  NearKernel near;
  // Distributed-executor state (ExecutionMode::kDistributed): the per-rank
  // workspaces persist here so warm distributed solves reuse their buffers.
  std::shared_ptr<internal::DistState> dist;

  // Builds (or reuses) the translation data; charged to "precompute".
  // `built` (optional) reports whether a fresh build happened — false on
  // reuse of the private slot AND on a shared-cache hit.
  const internal::TranslationData& translation_data(const FmmConfig& config,
                                                    bool* built = nullptr);
  // Builds (or reuses) the plan for `depth`; build time lands in
  // `result.breakdown["plan"]` of the solve that triggered it. With a
  // shared cache, a cache hit charges plan_reuse instead of allocs.
  const internal::FmmPlan& plan_for(const FmmConfig& config, int depth,
                                    PhaseBreakdown& breakdown);
};

}  // namespace hfmm::core
