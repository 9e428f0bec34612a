#pragma once
// Near-field direct evaluation (paper Section 3.4, Figure 10).
//
// Each leaf box interacts with the (2d+1)^3 - 1 neighbors of its
// d-separation near field plus its own particles. The symmetric variant
// exploits Newton's third law at box granularity: a half-list H with
// H u -H = all neighbors lets every box PAIR be evaluated once, writing
// both directions — 62 instead of 124 box-box interactions for d = 2.
//
// The pairwise arithmetic runs on the dispatched pkern backend (see
// hfmm/pkern/kernels.hpp); baseline::direct_ranges remains the scalar
// reference the tests compare against.
//
// Two entry levels:
//   * near_field() — the orchestrator: splits the leaf boxes into
//     kNearChunks ranges, runs near_field_chunk() per chunk on the pool,
//     reduces with near_field_accumulate(). Interaction lists come
//     precomputed from the caller (the solver's FmmPlan), so repeated
//     solves rebuild nothing.
//   * near_field_chunk() / near_field_accumulate() — the chunk-level worker
//     and reduction the hfmm::exec phase graph drives directly, so the near
//     field can run concurrently with the far-field stages and meet them at
//     the accumulate stage. Chunks write only their own write windows (see
//     NearFieldScratch) and the reduction adds chunks in index order, which
//     keeps threaded solves bitwise-reproducible.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hfmm/core/kernel_model.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/tree/hierarchy.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/util/thread_pool.hpp"

namespace hfmm::core {

/// Near-field chunk count of every executor: a near stage over `leaves`
/// leaf items runs min(leaves, kNearChunks) chunks. The symmetric near
/// field writes both sides of a box pair into its chunk's buffers, so the
/// split fixes the floating-point order of each particle's near-field sum.
/// It therefore depends on the problem only, never on the worker count:
/// sequential and threaded solves produce the same bits on any host.
/// Sixteen chunks give up to 16 workers near-field work to take beside the
/// far-field chain. Each chunk's write window carries its own halo of
/// partner leaves, so more chunks cost memory: 32 hold 3.9 N particles of
/// windows on uniform depth-4 trees against 2.8 N for 16 (EXPERIMENTS.md
/// Section 3.4).
inline constexpr std::size_t kNearChunks = 16;

struct NearFieldResult {
  std::uint64_t flops = 0;
  std::uint64_t pair_interactions = 0;  ///< particle pairs evaluated
  std::uint64_t box_interactions = 0;   ///< box-box interactions evaluated
};

/// Physics of the near-field pair loop, resolved by the solver from its
/// KernelSpec. Implicitly convertible from a softening length, which
/// selects the Laplace arithmetic. For van der Waals the solver
/// fills the precomputed pair tables / switching constants and the
/// per-particle type array (SORTED order, aligned with boxed.sorted); a
/// period > 0 in `vdw` additionally wraps box neighbours and pair
/// displacements to the minimum image of the periodic cube.
struct NearKernel {
  KernelType type = KernelType::kLaplace3d;
  double soft2 = 0.0;                  ///< Laplace: softening^2
  const std::int32_t* types = nullptr; ///< vdW: sorted per-particle types
  pkern::VdwParams vdw{};              ///< vdW: tables + derived constants
  NearKernel() = default;
  NearKernel(double softening) : soft2(softening * softening) {}  // implicit
};

/// One segment of a chunk's write window: the sorted particles
/// [begin, end), stored from window offset `at` on.
struct WindowSegment {
  std::uint32_t begin = 0, end = 0, at = 0;
};

/// Reusable near-field workspace: one slot per chunk. A chunk writes only
/// the particles of the leaves it evaluates and, when symmetric, of the
/// partner leaves those own. Its WRITE WINDOW packs exactly those sorted
/// particle ranges back to back, in particle order, so a chunk's buffers
/// hold its leaves and their near halo, not all N particles. Each leaf is
/// one sorted range, so the window is a short list of segments when the
/// chunk's leaves are spatially compact (Morton order). Windows are sized
/// per call; vectors grow on demand and are never shrunk, so repeated
/// calls on the same system (an integrator's timesteps) allocate nothing.
struct NearFieldScratch {
  struct Chunk {
    std::vector<WindowSegment> seg;  ///< window segments, ascending, disjoint
    std::vector<double> phi;         ///< window potential
    std::vector<Vec3> grad;          ///< window gradient
    std::vector<double> pair_phi;    ///< symmetric pair buffer (targets,
                                     ///< then sources)
    std::vector<double> pair_gx, pair_gy, pair_gz;  ///< SoA pair gradients

    /// Heap footprint of the slot's buffers (capacities).
    std::size_t capacity_bytes() const {
      return seg.capacity() * sizeof(WindowSegment) +
             (phi.capacity() + pair_phi.capacity() + pair_gx.capacity() +
              pair_gy.capacity() + pair_gz.capacity()) *
                 sizeof(double) +
             grad.capacity() * sizeof(Vec3);
    }
  };
  std::vector<Chunk> chunks;
};

/// Evaluates leaf boxes [box_lo, box_hi) into `ch`'s write window (packed,
/// sized and zeroed here). `offsets` is the precomputed interaction list —
/// tree::near_field_half_offsets(d) when `symmetric`, else
/// tree::near_field_offsets(d). Writes nothing outside `ch`; safe to run
/// concurrently with other chunks and with the far-field stages. The
/// returned flop count is analytic (pairs x per-pair kernel cost).
NearFieldResult near_field_chunk(const tree::Hierarchy& hier,
                                 const dp::BoxedParticles& boxed,
                                 std::span<const tree::Offset> offsets,
                                 bool symmetric, bool with_gradient,
                                 NearFieldScratch::Chunk& ch,
                                 std::size_t box_lo, std::size_t box_hi,
                                 const NearKernel& kern = NearKernel{});

/// Active-box variant: evaluates the leaf boxes whose flat indices are
/// listed in `boxes`, in list order (the solvers pass a slice of the
/// occupied leaves in sort-rank, i.e. Morton, order so that each chunk's
/// window is compact). Pair coverage matches the dense range form exactly —
/// an absent box is empty, and box pairs with an empty side are skipped by
/// both forms — so the two evaluate the same interactions; the list order
/// fixes the summation order.
NearFieldResult near_field_chunk(const tree::Hierarchy& hier,
                                 const dp::BoxedParticles& boxed,
                                 std::span<const tree::Offset> offsets,
                                 bool symmetric, bool with_gradient,
                                 NearFieldScratch::Chunk& ch,
                                 std::span<const std::uint32_t> boxes,
                                 const NearKernel& kern = NearKernel{});

/// U-list plan of an adaptive leaf front (DESIGN.md Section 15), borrowed
/// from the solve workspace. Leaf ids follow the front's canonical (level,
/// flat) enumeration. `leaf_bounds` holds one [particle_lo, particle_hi)
/// pair per leaf — the sorted-order range of the leaf's subtree, one range
/// because the coordinate sort's key is the Morton code. `pair_begin` is a
/// CSR over leaves into `pair_leaf`, the U-list partner leaf ids OWNED by
/// each leaf (each unordered leaf adjacency appears under exactly one
/// owner).
struct AdaptiveLeafPlan {
  std::span<const std::uint32_t> leaf_bounds;
  std::span<const std::uint32_t> pair_begin;
  std::span<const std::uint32_t> pair_leaf;
};

/// Adaptive-front chunk: evaluates the front leaves listed in `leaves`, in
/// list order (the solver passes a slice of the leaves sorted by their
/// particle ranges, i.e. Morton order) — every intra-leaf pair, then every
/// owned U-list adjacency through the symmetric pair buffer so both
/// directions land in `ch`'s window at once. Pair accounting matches the
/// uniform-leaf chunk: intra-leaf pairs are counted ordered (t*(t-1)),
/// cross-leaf adjacencies once per unordered pair. The evaluation order is
/// fixed (list order, partners in pair_leaf order), so results are
/// bitwise-reproducible for any fixed chunk split.
NearFieldResult near_field_adaptive_chunk(
    const dp::BoxedParticles& boxed, const AdaptiveLeafPlan& plan,
    bool with_gradient, NearFieldScratch::Chunk& ch,
    std::span<const std::uint32_t> leaves,
    const NearKernel& kern = NearKernel{});

/// Adds the windows of chunks [0, used) of `scr` into phi/grad over the
/// particle range [lo, hi), in chunk-index order; a chunk adds only the
/// segments of its window that overlap [lo, hi). Each particle therefore
/// sums the chunks that wrote it in a fixed order, whichever thread ran
/// which chunk and however [0, N) is split into accumulate ranges.
void near_field_accumulate(const NearFieldScratch& scr, std::size_t used,
                           bool with_gradient, std::span<double> phi,
                           std::span<Vec3> grad, std::size_t lo,
                           std::size_t hi);

/// Accumulates near-field potential (and gradient if `grad` nonempty) into
/// phi/grad, both indexed in SORTED particle order (boxed.sorted).
/// `scratch` (when non-null) is reused across calls; pass null for one-shot
/// use. `kern` selects the pairwise physics — a bare softening length still
/// converts to the Laplace kernel (far-field contributions are unsoftened,
/// which is the standard treecode convention when the softening length is
/// well below the leaf box side).
NearFieldResult near_field(const tree::Hierarchy& hier,
                           const dp::BoxedParticles& boxed,
                           std::span<const tree::Offset> offsets,
                           bool symmetric, std::span<double> phi,
                           std::span<Vec3> grad, ThreadPool& pool,
                           NearFieldScratch* scratch = nullptr,
                           const NearKernel& kern = NearKernel{});

}  // namespace hfmm::core
