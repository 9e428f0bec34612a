#include "hfmm/core/near_field.hpp"

#include <algorithm>
#include <vector>

#include "hfmm/baseline/direct.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/tree/interaction_lists.hpp"

namespace hfmm::core {

namespace {

struct BoxRange {
  std::size_t begin = 0, end = 0;
  std::size_t count() const { return end - begin; }
};

BoxRange range_of(const dp::BoxedParticles& boxed, std::size_t flat) {
  const std::uint32_t rank = boxed.flat_to_rank[flat];
  return {boxed.box_begin[rank], boxed.box_begin[rank + 1]};
}

// Analytic per-pair flop cost of the switched-LJ kernel (r2, table lookup,
// x^12/x^6 powers, switch polynomial; gradient adds the c2 * d updates).
std::uint64_t vdw_pair_flops(bool with_gradient) {
  return with_gradient ? 34 : 24;
}

// Range-range evaluations of one near-field chunk on the dispatched pkern
// backend, physics chosen once per chunk. Construction zeroes the chunk's
// N-length buffers; every evaluation adds into them.
class ChunkPairs {
 public:
  ChunkPairs(const dp::BoxedParticles& boxed, const NearKernel& kern,
             bool with_gradient, NearFieldScratch::Chunk& ch)
      : x_(boxed.sorted.x().data()),
        y_(boxed.sorted.y().data()),
        z_(boxed.sorted.z().data()),
        q_(boxed.sorted.q().data()),
        kern_(kern),
        back_(pkern::active_kernel()),
        vdw_(kern.type == KernelType::kVanDerWaals),
        with_gradient_(with_gradient),
        ch_(ch) {
    ch.phi.assign(boxed.sorted.size(), 0.0);
    if (with_gradient) ch.grad.assign(boxed.sorted.size(), Vec3{});
  }

  bool vdw() const { return vdw_; }

  // Analytic flop count of `pairs` particle pairs (pairs x per-pair cost;
  // the symmetric form adds the reaction updates).
  std::uint64_t flops(std::uint64_t pairs, bool symmetric) const {
    const std::uint64_t per_pair =
        (vdw_ ? vdw_pair_flops(with_gradient_)
              : baseline::direct_pair_flops(with_gradient_)) +
        (symmetric ? 4 : 0);
    return pairs * per_pair;
  }

  // Targets tr from sources sr, one direction.
  void one_way(const BoxRange& tr, const BoxRange& sr) {
    Vec3* grad = with_gradient_ ? ch_.grad.data() + tr.begin : nullptr;
    if (vdw_)
      back_.p2p_vdw(x_, y_, z_, kern_.types, tr.begin, tr.end, sr.begin,
                    sr.end, ch_.phi.data() + tr.begin, grad, kern_.vdw);
    else
      back_.p2p(x_, y_, z_, q_, tr.begin, tr.end, sr.begin, sr.end,
                ch_.phi.data() + tr.begin, grad, kern_.soft2);
  }

  // Both directions of the box pair in one pass (the paper's Figure 10
  // trick): the kernel writes targets then sources into the pair buffer,
  // which is then added into the chunk's buffers.
  void both_ways(const BoxRange& tr, const BoxRange& sr) {
    const std::size_t tot = tr.count() + sr.count();
    ch_.pair_phi.assign(tot, 0.0);
    if (with_gradient_) {
      ch_.pair_gx.assign(tot, 0.0);
      ch_.pair_gy.assign(tot, 0.0);
      ch_.pair_gz.assign(tot, 0.0);
    }
    double* gx = with_gradient_ ? ch_.pair_gx.data() : nullptr;
    if (vdw_)
      back_.p2p_vdw_symmetric(x_, y_, z_, kern_.types, tr.begin, tr.end,
                              sr.begin, sr.end, ch_.pair_phi.data(), gx,
                              ch_.pair_gy.data(), ch_.pair_gz.data(),
                              kern_.vdw);
    else
      back_.p2p_symmetric(x_, y_, z_, q_, tr.begin, tr.end, sr.begin, sr.end,
                          ch_.pair_phi.data(), gx, ch_.pair_gy.data(),
                          ch_.pair_gz.data(), kern_.soft2);
    add_pair_buffer(tr, 0);
    add_pair_buffer(sr, tr.count());
  }

 private:
  // Adds pair-buffer entries [at, at + r.count()) into particles r.
  void add_pair_buffer(const BoxRange& r, std::size_t at) {
    for (std::size_t i = 0; i < r.count(); ++i)
      ch_.phi[r.begin + i] += ch_.pair_phi[at + i];
    if (!with_gradient_) return;
    for (std::size_t i = 0; i < r.count(); ++i) {
      const std::size_t s = at + i;
      ch_.grad[r.begin + i] +=
          Vec3{ch_.pair_gx[s], ch_.pair_gy[s], ch_.pair_gz[s]};
    }
  }

  const double *x_, *y_, *z_, *q_;
  const NearKernel& kern_;
  const pkern::KernelBackend& back_;
  bool vdw_;
  bool with_gradient_;
  NearFieldScratch::Chunk& ch_;
};

// Shared chunk body: evaluates `count` leaf boxes whose flat indices come
// from `flat_of(i)` — a contiguous range on the dense path, an active-box
// list slice on the sparse path. The arithmetic is identical either way
// (the sparse path only skips boxes that contribute nothing).
template <typename FlatOf>
NearFieldResult evaluate_boxes(const tree::Hierarchy& hier,
                               const dp::BoxedParticles& boxed,
                               std::span<const tree::Offset> offsets,
                               bool symmetric, bool with_gradient,
                               NearFieldScratch::Chunk& ch,
                               const NearKernel& kern, std::size_t count,
                               FlatOf flat_of) {
  const int h = hier.depth();
  const std::int32_t n = hier.boxes_per_side(h);
  ChunkPairs pairs(boxed, kern, with_gradient, ch);
  // Periodic vdW: neighbour offsets wrap around the grid instead of
  // falling off it (the pair kernel wraps the displacements to match).
  // KernelSpec::validate + the solver's depth policy guarantee n >= 8, so
  // the +/-2 offsets stay distinct after the wrap.
  const bool periodic = pairs.vdw() && kern.vdw.period > 0.0;
  NearFieldResult res;

  for (std::size_t bi = 0; bi < count; ++bi) {
    const std::size_t f = flat_of(bi);
    const tree::BoxCoord c = hier.coord_of(h, f);
    const BoxRange tr = range_of(boxed, f);
    if (tr.count() == 0 && !symmetric) continue;

    // Intra-box interactions (always symmetric-safe: same box).
    if (tr.count() > 1) {
      pairs.one_way(tr, tr);
      res.pair_interactions += tr.count() * (tr.count() - 1);
      ++res.box_interactions;
    }

    for (const tree::Offset& o : offsets) {
      if (o == tree::Offset{0, 0, 0}) continue;
      tree::BoxCoord nb{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
      if (periodic) {
        nb.ix = (nb.ix + n) % n;
        nb.iy = (nb.iy + n) % n;
        nb.iz = (nb.iz + n) % n;
      } else if (nb.ix < 0 || nb.ix >= n || nb.iy < 0 || nb.iy >= n ||
                 nb.iz < 0 || nb.iz >= n) {
        continue;
      }
      const BoxRange sr = range_of(boxed, hier.flat_index(h, nb));
      if (sr.count() == 0 || tr.count() == 0) continue;
      if (symmetric)
        pairs.both_ways(tr, sr);
      else
        pairs.one_way(tr, sr);
      res.pair_interactions += tr.count() * sr.count();
      ++res.box_interactions;
    }
  }

  res.flops = pairs.flops(res.pair_interactions, symmetric);
  return res;
}

}  // namespace

NearFieldResult near_field_chunk(const tree::Hierarchy& hier,
                                 const dp::BoxedParticles& boxed,
                                 std::span<const tree::Offset> offsets,
                                 bool symmetric, bool with_gradient,
                                 NearFieldScratch::Chunk& ch,
                                 std::size_t box_lo, std::size_t box_hi,
                                 const NearKernel& kern) {
  ch.lo = box_lo;
  return evaluate_boxes(hier, boxed, offsets, symmetric, with_gradient, ch,
                        kern, box_hi - box_lo,
                        [box_lo](std::size_t i) { return box_lo + i; });
}

NearFieldResult near_field_chunk(const tree::Hierarchy& hier,
                                 const dp::BoxedParticles& boxed,
                                 std::span<const tree::Offset> offsets,
                                 bool symmetric, bool with_gradient,
                                 NearFieldScratch::Chunk& ch,
                                 std::span<const std::uint32_t> boxes,
                                 const NearKernel& kern) {
  ch.lo = boxes.empty() ? 0 : boxes.front();
  return evaluate_boxes(hier, boxed, offsets, symmetric, with_gradient, ch,
                        kern, boxes.size(),
                        [boxes](std::size_t i) { return boxes[i]; });
}

NearFieldResult near_field_adaptive_chunk(const dp::BoxedParticles& boxed,
                                          const AdaptiveLeafPlan& plan,
                                          bool with_gradient,
                                          NearFieldScratch::Chunk& ch,
                                          std::size_t leaf_lo,
                                          std::size_t leaf_hi,
                                          const NearKernel& kern) {
  ch.lo = leaf_lo;
  ChunkPairs pairs(boxed, kern, with_gradient, ch);
  const auto leaf = [&plan](std::size_t li) {
    return BoxRange{plan.leaf_bounds[2 * li], plan.leaf_bounds[2 * li + 1]};
  };
  NearFieldResult res;
  for (std::size_t li = leaf_lo; li < leaf_hi; ++li) {
    const BoxRange tr = leaf(li);
    if (tr.count() > 1) {
      pairs.one_way(tr, tr);
      res.pair_interactions += tr.count() * (tr.count() - 1);
      ++res.box_interactions;
    }
    // Owned U-list adjacencies, both directions at once.
    for (std::uint32_t pi = plan.pair_begin[li]; pi < plan.pair_begin[li + 1];
         ++pi) {
      const BoxRange sr = leaf(plan.pair_leaf[pi]);
      if (tr.count() == 0 || sr.count() == 0) continue;
      pairs.both_ways(tr, sr);
      res.pair_interactions += tr.count() * sr.count();
      ++res.box_interactions;
    }
  }

  res.flops = pairs.flops(res.pair_interactions, /*symmetric=*/true);
  return res;
}

void near_field_accumulate(const NearFieldScratch& scr, std::size_t used,
                           bool with_gradient, std::span<double> phi,
                           std::span<Vec3> grad, std::size_t lo,
                           std::size_t hi) {
  for (std::size_t c = 0; c < used; ++c) {
    const double* src = scr.chunks[c].phi.data();
    for (std::size_t i = lo; i < hi; ++i) phi[i] += src[i];
    if (with_gradient) {
      const Vec3* gsrc = scr.chunks[c].grad.data();
      for (std::size_t i = lo; i < hi; ++i) grad[i] += gsrc[i];
    }
  }
}

NearFieldResult near_field(const tree::Hierarchy& hier,
                           const dp::BoxedParticles& boxed,
                           std::span<const tree::Offset> offsets,
                           bool symmetric, std::span<double> phi,
                           std::span<Vec3> grad, ThreadPool& pool,
                           NearFieldScratch* scratch, const NearKernel& kern) {
  const std::size_t boxes = hier.boxes_at(hier.depth());
  const bool with_gradient = !grad.empty();
  const ParticleSet& p = boxed.sorted;

  // kNearChunks equal box ranges, whatever the pool size: the chunk split
  // fixes the summation order, and chunk-index order is box-range order by
  // construction. The buffers live in caller-owned scratch (or a local
  // fallback) so repeated calls — an integrator's timestep loop — reuse the
  // capacity.
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(kNearChunks, boxes));
  const std::size_t step = (boxes + chunks - 1) / chunks;
  NearFieldScratch local;
  NearFieldScratch& scr = scratch != nullptr ? *scratch : local;
  if (scr.chunks.size() < chunks) scr.chunks.resize(chunks);
  std::vector<NearFieldResult> partial(chunks);

  pool.parallel_for(0, chunks, [&](std::size_t c) {
    const std::size_t lo = std::min(boxes, c * step);
    partial[c] = near_field_chunk(hier, boxed, offsets, symmetric,
                                  with_gradient, scr.chunks[c], lo,
                                  std::min(boxes, lo + step), kern);
  });

  // Reduce chunk buffers into the output, parallel over disjoint particle
  // ranges (the serial reduction was O(chunks * N) on one core and showed
  // up at large N).
  pool.parallel_chunks(0, p.size(), [&](std::size_t lo, std::size_t hi) {
    near_field_accumulate(scr, chunks, with_gradient, phi, grad, lo, hi);
  });

  NearFieldResult total;
  for (std::size_t c = 0; c < chunks; ++c) {
    total.pair_interactions += partial[c].pair_interactions;
    total.box_interactions += partial[c].box_interactions;
    total.flops += partial[c].flops;
  }
  return total;
}

}  // namespace hfmm::core
