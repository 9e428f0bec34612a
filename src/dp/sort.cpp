#include "hfmm/dp/sort.hpp"

#include <cstring>
#include <numeric>
#include <stdexcept>

namespace hfmm::dp {

namespace {

// Gathers each attribute (and the per-particle leaf flat) through the
// permutation — shared by the full counting sort and the incremental repair
// (positions change every step, so the gather is O(N) either way).
void gather_sorted(const ParticleSet& particles, const SortScratch& scratch,
                   BoxedParticles& out) {
  const std::size_t n = particles.size();
  out.sorted.resize(n);
  out.box_of.resize(n);
  const std::span<const double> x = particles.x(), y = particles.y(),
                                z = particles.z(), q = particles.q();
  const std::span<double> sx = out.sorted.x(), sy = out.sorted.y(),
                          sz = out.sorted.z(), sq = out.sorted.q();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = out.perm[i];
    sx[i] = x[s];
    sy[i] = y[s];
    sz[i] = z[s];
    sq[i] = q[s];
    out.box_of[i] = scratch.flat_of[s];
  }
  if (particles.has_types()) {
    out.sorted.ensure_types();
    const std::span<const std::int32_t> t = particles.type();
    const std::span<std::int32_t> st = out.sorted.type();
    for (std::size_t i = 0; i < n; ++i) st[i] = t[out.perm[i]];
  }
}

// Shared grouping machinery: given a rank (position in the box enumeration
// order implied by the sort keys) per particle, produce the CSR structure
// via a stable counting sort. Writes into `out` reusing its buffers;
// `out.rank_to_flat` must already hold the rank -> flat map.
void group_by_rank(const ParticleSet& particles, SortScratch& scratch,
                   BoxedParticles& out) {
  const std::size_t n = particles.size();
  const std::size_t boxes = out.rank_to_flat.size();

  out.box_begin.assign(boxes + 1, 0);
  for (const std::uint32_t r : scratch.rank_of) out.box_begin[r + 1]++;
  for (std::size_t b = 0; b < boxes; ++b)
    out.box_begin[b + 1] += out.box_begin[b];

  out.perm.resize(n);
  scratch.cursor.assign(out.box_begin.begin(), out.box_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    out.perm[scratch.cursor[scratch.rank_of[i]]++] =
        static_cast<std::uint32_t>(i);

  gather_sorted(particles, scratch, out);

  out.flat_to_rank.resize(boxes);
  for (std::size_t r = 0; r < boxes; ++r)
    out.flat_to_rank[out.rank_to_flat[r]] = static_cast<std::uint32_t>(r);
}

}  // namespace

std::pair<std::uint32_t, std::uint32_t> box_range(const BoxedParticles& boxed,
                                                  const tree::Hierarchy& hier,
                                                  int level, std::size_t flat) {
  const int h = hier.depth();
  const int s = h - level;
  const tree::BoxCoord c = hier.coord_of(level, flat);
  const tree::BoxCoord first{c.ix << s, c.iy << s, c.iz << s};
  const std::int32_t span = (std::int32_t{1} << s) - 1;
  const tree::BoxCoord last{first.ix + span, first.iy + span,
                            first.iz + span};
  return {boxed.box_begin[boxed.flat_to_rank[hier.flat_index(h, first)]],
          boxed.box_begin[boxed.flat_to_rank[hier.flat_index(h, last)] + 1]};
}

void coordinate_sort(const ParticleSet& particles, const tree::Hierarchy& hier,
                     const BlockLayout& layout, BoxedParticles& out,
                     SortScratch* scratch) {
  if (layout.boxes_per_side() != hier.boxes_per_side(hier.depth()))
    throw std::invalid_argument("coordinate_sort: layout/hierarchy mismatch");
  const std::size_t n = particles.size();
  const std::size_t boxes = layout.total_boxes();

  SortScratch local;
  SortScratch& scr = scratch != nullptr ? *scratch : local;

  // The coordinate-sort key of a box IS its enumeration rank: VU-address
  // bits above local-address bits yields a dense [0, boxes) integer.
  scr.rank_of.resize(n);
  scr.flat_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const tree::BoxCoord c = hier.leaf_of(particles.position(i));
    scr.rank_of[i] = static_cast<std::uint32_t>(layout.sort_key(c));
    scr.flat_of[i] =
        static_cast<std::uint32_t>(hier.flat_index(hier.depth(), c));
  }
  out.rank_to_flat.resize(boxes);
  for (std::size_t f = 0; f < boxes; ++f) {
    const tree::BoxCoord c = hier.coord_of(hier.depth(), f);
    out.rank_to_flat[layout.sort_key(c)] = static_cast<std::uint32_t>(f);
  }
  group_by_rank(particles, scr, out);
}

BoxedParticles coordinate_sort(const ParticleSet& particles,
                               const tree::Hierarchy& hier,
                               const BlockLayout& layout) {
  BoxedParticles out;
  coordinate_sort(particles, hier, layout, out);
  return out;
}

StepSortResult coordinate_sort_step(const ParticleSet& particles,
                                    const tree::Hierarchy& hier,
                                    const BlockLayout& layout,
                                    double mover_threshold,
                                    BoxedParticles& out, SortScratch& scr) {
  if (layout.boxes_per_side() != hier.boxes_per_side(hier.depth()))
    throw std::invalid_argument(
        "coordinate_sort_step: layout/hierarchy mismatch");
  const std::size_t n = particles.size();
  const std::size_t boxes = layout.total_boxes();
  if (scr.rank_of.size() != n || out.perm.size() != n ||
      out.box_begin.size() != boxes + 1 || out.rank_to_flat.size() != boxes)
    throw std::invalid_argument(
        "coordinate_sort_step: no previous sort of this shape to step from");

  StepSortResult res;

  // New keys per ORIGINAL index; flat_of is overwritten in place (the diff
  // only needs the old ranks). Movers are collected in ascending original
  // index, which makes each per-rank joiner bucket ascending too — the
  // ordering the stable counting sort would produce.
  scr.rank_new.resize(n);
  scr.moved.assign(n, 0);
  scr.mover_list.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const tree::BoxCoord c = hier.leaf_of(particles.position(i));
    scr.rank_new[i] = static_cast<std::uint32_t>(layout.sort_key(c));
    scr.flat_of[i] =
        static_cast<std::uint32_t>(hier.flat_index(hier.depth(), c));
    if (scr.rank_new[i] != scr.rank_of[i]) {
      scr.moved[i] = 1;
      scr.mover_list.push_back(static_cast<std::uint32_t>(i));
    }
  }
  res.movers = scr.mover_list.size();

  // Previous per-rank occupancy — the baseline the invalidation set (and
  // the repaired offsets) diff against.
  scr.prev_count.resize(boxes);
  for (std::size_t r = 0; r < boxes; ++r)
    scr.prev_count[r] = out.box_begin[r + 1] - out.box_begin[r];

  scr.changed_ranks.clear();
  const auto record_change = [&](std::size_t r, std::uint32_t now) {
    if (now == scr.prev_count[r]) return;
    res.counts_changed = true;
    scr.changed_ranks.push_back(static_cast<std::uint32_t>(r));
    if ((now == 0) != (scr.prev_count[r] == 0)) res.emptiness_changed = true;
  };

  if (static_cast<double>(res.movers) >
      mover_threshold * static_cast<double>(n)) {
    // Above threshold: the full counting sort is cheaper than a repair that
    // touches most runs anyway. Bit-identical by construction.
    std::swap(scr.rank_of, scr.rank_new);
    group_by_rank(particles, scr, out);
    for (std::size_t r = 0; r < boxes; ++r)
      record_change(r, out.box_begin[r + 1] - out.box_begin[r]);
    return res;
  }
  res.repaired = true;

  if (res.movers == 0) {
    // Order unchanged: only the positions moved within their boxes.
    gather_sorted(particles, scr, out);
    return res;
  }

  // Per-rank join/leave counts from the movers only (the O(boxes) clears
  // are no worse than the prefix sums below).
  scr.joins.assign(boxes, 0);
  scr.leaves.assign(boxes, 0);
  for (const std::uint32_t i : scr.mover_list) {
    scr.leaves[scr.rank_of[i]]++;
    scr.joins[scr.rank_new[i]]++;
  }

  // New offsets and joiner-bucket offsets.
  scr.begin_new.resize(boxes + 1);
  scr.join_begin.resize(boxes + 1);
  scr.begin_new[0] = 0;
  scr.join_begin[0] = 0;
  for (std::size_t r = 0; r < boxes; ++r) {
    const std::uint32_t now = scr.prev_count[r] - scr.leaves[r] + scr.joins[r];
    scr.begin_new[r + 1] = scr.begin_new[r] + now;
    scr.join_begin[r + 1] = scr.join_begin[r] + scr.joins[r];
    record_change(r, now);
  }

  // Bucket the movers stably by NEW rank; mover_list is ascending by
  // original index, so each bucket comes out ascending too — the ordering
  // the stable counting sort would give the same particles.
  scr.cursor.assign(scr.join_begin.begin(), scr.join_begin.end() - 1);
  scr.join_sorted.resize(res.movers);
  for (const std::uint32_t i : scr.mover_list)
    scr.join_sorted[scr.cursor[scr.rank_new[i]]++] = i;

  // Rebuild the permutation: runs of untouched ranks are contiguous in both
  // the old and the new permutation (their counts are unchanged, so the
  // offset shift is constant across the run) and block-copy as ONE memcpy —
  // per-rank copies would pay call overhead on every near-empty box.
  // Affected ranks two-way merge the surviving old members (still ascending
  // by original index) with the rank's joiner bucket (also ascending) —
  // reproducing exactly the stable counting sort's within-rank order.
  std::swap(out.perm, scr.perm_prev);  // perm_prev := old permutation
  out.perm.resize(n);
  for (std::size_t r = 0; r < boxes;) {
    if (scr.joins[r] == 0 && scr.leaves[r] == 0) {
      const std::size_t r0 = r;
      do {
        ++r;
      } while (r < boxes && scr.joins[r] == 0 && scr.leaves[r] == 0);
      const std::uint32_t ob = out.box_begin[r0], oe = out.box_begin[r];
      std::memcpy(out.perm.data() + scr.begin_new[r0],
                  scr.perm_prev.data() + ob,
                  static_cast<std::size_t>(oe - ob) * sizeof(std::uint32_t));
      continue;
    }
    const std::uint32_t ob = out.box_begin[r], oe = out.box_begin[r + 1];
    std::uint32_t* dst = out.perm.data() + scr.begin_new[r];
    const std::uint32_t je = scr.join_begin[r + 1];
    std::uint32_t s = ob;
    std::uint32_t j = scr.join_begin[r];
    while (s < oe && scr.moved[scr.perm_prev[s]]) ++s;
    while (s < oe || j < je) {
      if (j >= je || (s < oe && scr.perm_prev[s] < scr.join_sorted[j])) {
        *dst++ = scr.perm_prev[s++];
        while (s < oe && scr.moved[scr.perm_prev[s]]) ++s;
      } else {
        *dst++ = scr.join_sorted[j++];
      }
    }
    ++r;
  }
  std::swap(out.box_begin, scr.begin_new);
  std::swap(scr.rank_of, scr.rank_new);
  gather_sorted(particles, scr, out);
  return res;
}

SortLocality measure_locality(const BoxedParticles& boxed,
                              const tree::Hierarchy& hier,
                              const BlockLayout& layout) {
  const std::size_t n = boxed.sorted.size();
  SortLocality loc;
  if (n == 0) return loc;
  const std::size_t p = layout.machine().total_vus();
  std::size_t home = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Block partition of the sorted 1-D arrays over the VUs.
    const std::size_t vu_1d = i * p / n;
    const tree::BoxCoord c = hier.coord_of(hier.depth(), boxed.box_of[i]);
    if (layout.home_of(c).vu == vu_1d)
      ++home;
    else
      loc.off_vu_bytes += 4 * sizeof(double);  // x, y, z, q move off-VU
  }
  loc.home_fraction = static_cast<double>(home) / static_cast<double>(n);
  return loc;
}

void segmented_scan_add(std::span<const double> in,
                        std::span<const std::uint32_t> offsets,
                        std::span<double> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("segmented_scan_add: size mismatch");
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    double acc = 0.0;
    for (std::uint32_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      acc += in[i];
      out[i] = acc;
    }
  }
}

}  // namespace hfmm::dp
