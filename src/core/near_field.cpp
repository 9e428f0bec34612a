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

// Shared chunk body: evaluates `count` leaf boxes whose flat indices come
// from `flat_of(i)` — a contiguous range on the dense path, an active-box
// list slice on the sparse path. The arithmetic is identical either way
// (the sparse path only skips boxes that contribute nothing).
// Analytic per-pair flop cost of the switched-LJ kernel (r2, table lookup,
// x^12/x^6 powers, switch polynomial; gradient adds the c2 * d updates).
std::uint64_t vdw_pair_flops(bool with_gradient) {
  return with_gradient ? 34 : 24;
}

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
  const ParticleSet& p = boxed.sorted;
  const double* X = p.x().data();
  const double* Y = p.y().data();
  const double* Z = p.z().data();
  const double* Q = p.q().data();
  const double soft2 = kern.soft2;
  const bool vdw = kern.type == KernelType::kVanDerWaals;
  const std::int32_t* T = kern.types;
  // Periodic vdW: neighbour offsets wrap around the grid instead of
  // falling off it (the pair kernel wraps the displacements to match).
  // KernelSpec::validate + the solver's depth policy guarantee n >= 8, so
  // the +/-2 offsets stay distinct after the wrap.
  const bool periodic = vdw && kern.vdw.period > 0.0;
  const pkern::KernelBackend& back = pkern::active_kernel();

  // Kernel-dispatched range-range evaluations: identical outputs layout,
  // physics chosen once per chunk.
  const auto p2p = [&](const BoxRange& tr, const BoxRange& sr) {
    if (vdw)
      back.p2p_vdw(X, Y, Z, T, tr.begin, tr.end, sr.begin, sr.end,
                   ch.phi.data() + tr.begin,
                   with_gradient ? ch.grad.data() + tr.begin : nullptr,
                   kern.vdw);
    else
      back.p2p(X, Y, Z, Q, tr.begin, tr.end, sr.begin, sr.end,
               ch.phi.data() + tr.begin,
               with_gradient ? ch.grad.data() + tr.begin : nullptr, soft2);
  };
  const auto p2p_symmetric = [&](const BoxRange& tr, const BoxRange& sr) {
    if (vdw)
      back.p2p_vdw_symmetric(X, Y, Z, T, tr.begin, tr.end, sr.begin, sr.end,
                             ch.pair_phi.data(),
                             with_gradient ? ch.pair_gx.data() : nullptr,
                             ch.pair_gy.data(), ch.pair_gz.data(), kern.vdw);
    else
      back.p2p_symmetric(X, Y, Z, Q, tr.begin, tr.end, sr.begin, sr.end,
                         ch.pair_phi.data(),
                         with_gradient ? ch.pair_gx.data() : nullptr,
                         ch.pair_gy.data(), ch.pair_gz.data(), soft2);
  };

  ch.phi.assign(p.size(), 0.0);
  Vec3* my_grad = nullptr;
  if (with_gradient) {
    ch.grad.assign(p.size(), Vec3{});
    my_grad = ch.grad.data();
  }
  NearFieldResult res;

  for (std::size_t bi = 0; bi < count; ++bi) {
    const std::size_t f = flat_of(bi);
    const tree::BoxCoord c = hier.coord_of(h, f);
    const BoxRange tr = range_of(boxed, f);
    if (tr.count() == 0 && !symmetric) continue;

    // Intra-box interactions (always symmetric-safe: same box).
    if (tr.count() > 1) {
      p2p(tr, tr);
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
      if (symmetric) {
        // Both directions in one pass; the paper's Figure 10 trick.
        const std::size_t tot = tr.count() + sr.count();
        ch.pair_phi.assign(tot, 0.0);
        if (with_gradient) {
          ch.pair_gx.assign(tot, 0.0);
          ch.pair_gy.assign(tot, 0.0);
          ch.pair_gz.assign(tot, 0.0);
        }
        p2p_symmetric(tr, sr);
        for (std::size_t i = 0; i < tr.count(); ++i)
          ch.phi[tr.begin + i] += ch.pair_phi[i];
        for (std::size_t j = 0; j < sr.count(); ++j)
          ch.phi[sr.begin + j] += ch.pair_phi[tr.count() + j];
        if (with_gradient) {
          for (std::size_t i = 0; i < tr.count(); ++i) {
            my_grad[tr.begin + i] +=
                Vec3{ch.pair_gx[i], ch.pair_gy[i], ch.pair_gz[i]};
          }
          for (std::size_t j = 0; j < sr.count(); ++j) {
            const std::size_t s = tr.count() + j;
            my_grad[sr.begin + j] +=
                Vec3{ch.pair_gx[s], ch.pair_gy[s], ch.pair_gz[s]};
          }
        }
        res.pair_interactions += tr.count() * sr.count();
        ++res.box_interactions;
      } else {
        p2p(tr, sr);
        res.pair_interactions += tr.count() * sr.count();
        ++res.box_interactions;
      }
    }
  }

  // Flop count is analytic (pairs x per-pair cost), not measured.
  const std::uint64_t per_pair =
      (vdw ? vdw_pair_flops(with_gradient)
           : baseline::direct_pair_flops(with_gradient)) +
      (symmetric ? 4 : 0);
  res.flops = res.pair_interactions * per_pair;
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
                                          double softening) {
  const ParticleSet& p = boxed.sorted;
  const double* X = p.x().data();
  const double* Y = p.y().data();
  const double* Z = p.z().data();
  const double* Q = p.q().data();
  const double soft2 = softening * softening;
  const pkern::KernelBackend& kern = pkern::active_kernel();

  ch.lo = leaf_lo;
  ch.phi.assign(p.size(), 0.0);
  Vec3* my_grad = nullptr;
  if (with_gradient) {
    ch.grad.assign(p.size(), Vec3{});
    my_grad = ch.grad.data();
  }
  NearFieldResult res;

  // Symmetric range-range evaluation through the pair buffer; `weight` is
  // the pair-count multiplier (2 for intra-leaf run crosses, which the
  // uniform chunk would count ordered; 1 for cross-leaf adjacencies).
  const auto sym_ranges = [&](std::size_t tb, std::size_t te, std::size_t sb,
                              std::size_t se, std::uint64_t weight) {
    const std::size_t tn = te - tb;
    const std::size_t sn = se - sb;
    if (tn == 0 || sn == 0) return;
    const std::size_t tot = tn + sn;
    ch.pair_phi.assign(tot, 0.0);
    if (with_gradient) {
      ch.pair_gx.assign(tot, 0.0);
      ch.pair_gy.assign(tot, 0.0);
      ch.pair_gz.assign(tot, 0.0);
    }
    kern.p2p_symmetric(X, Y, Z, Q, tb, te, sb, se, ch.pair_phi.data(),
                       with_gradient ? ch.pair_gx.data() : nullptr,
                       ch.pair_gy.data(), ch.pair_gz.data(), soft2);
    for (std::size_t i = 0; i < tn; ++i) ch.phi[tb + i] += ch.pair_phi[i];
    for (std::size_t j = 0; j < sn; ++j)
      ch.phi[sb + j] += ch.pair_phi[tn + j];
    if (with_gradient) {
      for (std::size_t i = 0; i < tn; ++i) {
        my_grad[tb + i] += Vec3{ch.pair_gx[i], ch.pair_gy[i], ch.pair_gz[i]};
      }
      for (std::size_t j = 0; j < sn; ++j) {
        const std::size_t s = tn + j;
        my_grad[sb + j] += Vec3{ch.pair_gx[s], ch.pair_gy[s], ch.pair_gz[s]};
      }
    }
    res.pair_interactions += weight * tn * sn;
    ++res.box_interactions;
  };

  for (std::size_t li = leaf_lo; li < leaf_hi; ++li) {
    const std::uint32_t r0 = plan.run_begin[li];
    const std::uint32_t r1 = plan.run_begin[li + 1];
    // Intra-leaf: each run against itself, then ascending run crosses.
    for (std::uint32_t ri = r0; ri < r1; ++ri) {
      const std::size_t b = plan.run_bounds[2 * ri];
      const std::size_t e = plan.run_bounds[2 * ri + 1];
      if (e - b > 1) {
        kern.p2p(X, Y, Z, Q, b, e, b, e, ch.phi.data() + b,
                 with_gradient ? my_grad + b : nullptr, soft2);
        res.pair_interactions += (e - b) * (e - b - 1);
        ++res.box_interactions;
      }
      for (std::uint32_t rj = ri + 1; rj < r1; ++rj)
        sym_ranges(b, e, plan.run_bounds[2 * rj], plan.run_bounds[2 * rj + 1],
                   2);
    }
    // Owned U-list adjacencies: all run pairs against each partner leaf.
    for (std::uint32_t pi = plan.pair_begin[li]; pi < plan.pair_begin[li + 1];
         ++pi) {
      const std::uint32_t partner = plan.pair_leaf[pi];
      const std::uint32_t s0 = plan.run_begin[partner];
      const std::uint32_t s1 = plan.run_begin[partner + 1];
      for (std::uint32_t ri = r0; ri < r1; ++ri) {
        for (std::uint32_t rj = s0; rj < s1; ++rj)
          sym_ranges(plan.run_bounds[2 * ri], plan.run_bounds[2 * ri + 1],
                     plan.run_bounds[2 * rj], plan.run_bounds[2 * rj + 1], 1);
      }
    }
  }

  res.flops = res.pair_interactions *
              (baseline::direct_pair_flops(with_gradient) + 4);
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
