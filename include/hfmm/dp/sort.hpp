#pragma once
// The coordinate sort (paper Section 3.2, Figure 5) and the boxed particle
// representation it produces.
//
// Input particles arrive as 1-D attribute arrays. The FMM needs them grouped
// by leaf box AND aligned so that, when the sorted 1-D arrays are block-
// partitioned over the VUs, each particle already resides on the VU that
// owns its leaf box. The coordinate sort achieves both by sorting on keys
// built from the box coordinates' VU-address bits (concatenated z|y|x) above
// their local-address bits (interleaved, Morton order; see
// BlockLayout::sort_key). The interleaving makes every octree box inside
// one VU a contiguous range of the sorted order (box_range): with the
// one-VU layout of the shared-memory executors, every box at every level.

#include <cstdint>
#include <utility>
#include <vector>

#include "hfmm/dp/layout.hpp"
#include "hfmm/util/particles.hpp"

namespace hfmm::dp {

/// Particles grouped by leaf box (CSR over boxes in coordinate-sort key
/// order), the 4-D particle-array analogue of Section 3.1.
struct BoxedParticles {
  ParticleSet sorted;                     ///< particles in key order
  std::vector<std::uint32_t> perm;        ///< sorted index -> original index
  std::vector<std::uint32_t> box_of;      ///< leaf flat index per particle
  std::vector<std::uint32_t> box_begin;   ///< CSR offsets, size = #boxes + 1,
                                          ///< indexed by coordinate-sort rank
  std::vector<std::uint32_t> rank_to_flat;  ///< sort rank -> leaf flat index
  std::vector<std::uint32_t> flat_to_rank;  ///< leaf flat index -> sort rank

  std::uint32_t count_in_rank(std::size_t rank) const {
    return box_begin[rank + 1] - box_begin[rank];
  }
};

/// The sorted particle range [first, second) of box `flat` at `level` of
/// `hier`, the hierarchy `boxed` was sorted over. It is one range when the
/// box lies inside one VU of the sort's layout (always, with one VU): the
/// ranks from the box's first leaf descendant to its last one.
std::pair<std::uint32_t, std::uint32_t> box_range(const BoxedParticles& boxed,
                                                  const tree::Hierarchy& hier,
                                                  int level, std::size_t flat);

/// Sorts `particles` with the coordinate sort for `layout` over `hier`'s
/// leaf level. Stable counting sort on the composite key; O(N + boxes).
BoxedParticles coordinate_sort(const ParticleSet& particles,
                               const tree::Hierarchy& hier,
                               const BlockLayout& layout);

/// Reusable temporaries of the counting sort (key arrays and cursors); pass
/// the same instance across calls to keep repeated sorts allocation-free.
/// After any sort through a SortScratch, `rank_of` / `flat_of` hold the
/// CURRENT rank / leaf flat index per ORIGINAL particle index — the state
/// coordinate_sort_step() diffs against on the next timestep.
struct SortScratch {
  std::vector<std::uint32_t> rank_of, flat_of, cursor;

  // Incremental-step state (coordinate_sort_step): new ranks, the previous
  // permutation, per-rank join/leave counts and joiner buckets, and the
  // list of ranks whose occupancy count changed (the invalidation set the
  // solver's StepCache consumes). All reused across steps.
  std::vector<std::uint32_t> rank_new;
  std::vector<std::uint32_t> perm_prev;
  std::vector<std::uint32_t> prev_count;
  std::vector<std::uint32_t> joins, leaves, join_begin, join_sorted;
  std::vector<std::uint32_t> mover_list;
  std::vector<std::uint32_t> begin_new;
  std::vector<std::uint8_t> moved;
  std::vector<std::uint32_t> changed_ranks;  ///< ranks with a net count change
};

/// Outcome of one incremental sort step (see coordinate_sort_step()).
struct StepSortResult {
  std::size_t movers = 0;   ///< particles whose leaf box (rank) changed
  bool repaired = false;    ///< in-place repair ran (no full counting sort)
  bool counts_changed = false;     ///< some rank's occupancy count changed
  bool emptiness_changed = false;  ///< some rank flipped empty <-> non-empty
};

/// In-place variant: writes into `out`, reusing its buffers (and
/// `scratch`'s, when given) so an integrator's step loop pays the sort
/// allocations once. Produces exactly the same result as the returning form.
void coordinate_sort(const ParticleSet& particles, const tree::Hierarchy& hier,
                     const BlockLayout& layout, BoxedParticles& out,
                     SortScratch* scratch = nullptr);

/// Incremental re-sort for a timestep loop (DESIGN.md Section 14). `out` and
/// `scratch` must hold the result of a previous sort of the SAME particle
/// set (same n) over the SAME hierarchy geometry and layout; only positions
/// may have changed since. Diffs each particle's new rank against
/// `scratch.rank_of`: when the mover fraction is <= `mover_threshold` the
/// sorted order is repaired in place (movers stably re-inserted, permutation
/// and box offsets patched), otherwise the full counting sort reruns. Both
/// paths produce output bit-identical to coordinate_sort() on the new
/// positions. On return `scratch.changed_ranks` lists the ranks whose
/// occupancy count changed — the chunk-plan invalidation set.
StepSortResult coordinate_sort_step(const ParticleSet& particles,
                                    const tree::Hierarchy& hier,
                                    const BlockLayout& layout,
                                    double mover_threshold,
                                    BoxedParticles& out, SortScratch& scratch);

struct SortLocality {
  double home_fraction = 0.0;     ///< particles landing on their box's VU
  std::uint64_t off_vu_bytes = 0; ///< reshaping traffic for the misplaced rest
};

/// Evaluates the reshaping locality of a sorted order: block-partition the
/// sorted 1-D arrays over the VUs and check each particle against the home
/// VU of its leaf box (Section 3.2's claim: with >= 1 box per VU the
/// coordinate sort needs NO reshaping communication).
SortLocality measure_locality(const BoxedParticles& boxed,
                              const tree::Hierarchy& hier,
                              const BlockLayout& layout);

/// Segmented inclusive +-scan: out[i] = sum of in[j] for j in the same
/// segment with j <= i. Segments given by CSR offsets. The data-parallel
/// P2M formulation of Section 3.2 reduces to per-VU segmented scans; exposed
/// for tests and the sort bench.
void segmented_scan_add(std::span<const double> in,
                        std::span<const std::uint32_t> offsets,
                        std::span<double> out);

}  // namespace hfmm::dp
