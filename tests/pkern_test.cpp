// Agreement and edge-case tests for the pkern particle-kernel backends.
// Every dispatchable backend must reproduce the scalar references —
// baseline::direct_ranges for P2P, anderson::evaluate_inner for L2P — to
// within the rsqrt+Newton error budget (<= 1e-12 relative), including tail
// lanes, self-pair skipping, softening, and the near-field driver's
// symmetric/non-symmetric equivalence on degenerate box populations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "hfmm/anderson/kernels.hpp"
#include "hfmm/anderson/params.hpp"
#include "hfmm/baseline/direct.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/util/particles.hpp"
#include "hfmm/util/rng.hpp"

namespace hfmm {
namespace {

constexpr double kTol = 1e-12;  // rsqrt + 2x Newton leaves ~6e-14, one-sided

class PkernBackendTest : public ::testing::TestWithParam<pkern::KernelKind> {
 protected:
  void SetUp() override {
    if (!pkern::kernel_supported(GetParam()))
      GTEST_SKIP() << "backend unsupported on this CPU";
    previous_ = pkern::active_kernel_kind();
    ASSERT_TRUE(pkern::select_kernel(GetParam()));
  }
  void TearDown() override {
    if (pkern::kernel_supported(GetParam()))
      pkern::select_kernel(previous_);
  }
  const pkern::KernelBackend& kern() const {
    return pkern::kernel_backend(GetParam());
  }

 private:
  pkern::KernelKind previous_ = pkern::KernelKind::kPortable;
};

// Sizes straddle the 4-wide register: tails of 1..3, sub-register boxes.
void expect_p2p_matches_scalar(const pkern::KernelBackend& kern,
                               std::size_t nt, std::size_t ns,
                               bool with_grad, double softening) {
  const ParticleSet p = make_uniform(nt + ns, Box3{}, 1234 + nt * 31 + ns);
  std::vector<double> phi(nt, 0.0), ref_phi(nt, 0.0);
  std::vector<Vec3> grad(nt), ref_grad(nt);
  baseline::direct_ranges(p, 0, nt, nt, nt + ns, ref_phi.data(),
                          with_grad ? ref_grad.data() : nullptr, softening);
  kern.p2p(p.x().data(), p.y().data(), p.z().data(), p.q().data(), 0, nt, nt,
           nt + ns, phi.data(), with_grad ? grad.data() : nullptr,
           softening * softening);
  for (std::size_t i = 0; i < nt; ++i) {
    EXPECT_NEAR(phi[i], ref_phi[i], kTol * std::abs(ref_phi[i]))
        << "nt=" << nt << " ns=" << ns << " i=" << i;
    if (with_grad) {
      const double scale = ref_grad[i].norm() + 1.0;
      EXPECT_NEAR(grad[i].x, ref_grad[i].x, kTol * scale);
      EXPECT_NEAR(grad[i].y, ref_grad[i].y, kTol * scale);
      EXPECT_NEAR(grad[i].z, ref_grad[i].z, kTol * scale);
    }
  }
}

TEST_P(PkernBackendTest, P2pMatchesScalarAcrossShapes) {
  for (const std::size_t nt : {1u, 3u, 4u, 7u, 64u})
    for (const std::size_t ns : {1u, 2u, 5u, 8u, 63u})
      for (const bool grad : {false, true})
        expect_p2p_matches_scalar(kern(), nt, ns, grad, 0.0);
}

TEST_P(PkernBackendTest, P2pHonorsSoftening) {
  expect_p2p_matches_scalar(kern(), 33, 50, true, 0.01);
}

TEST_P(PkernBackendTest, P2pIdenticalRangeSkipsSelfPair) {
  for (const std::size_t n : {1u, 2u, 5u, 17u, 64u}) {
    const ParticleSet p = make_uniform(n, Box3{}, 77 + n);
    std::vector<double> phi(n, 0.0), ref_phi(n, 0.0);
    std::vector<Vec3> grad(n), ref_grad(n);
    baseline::direct_ranges(p, 0, n, 0, n, ref_phi.data(), ref_grad.data());
    kern().p2p(p.x().data(), p.y().data(), p.z().data(), p.q().data(), 0, n,
               0, n, phi.data(), grad.data(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(phi[i], ref_phi[i], kTol * (std::abs(ref_phi[i]) + 1.0));
      EXPECT_NEAR(grad[i].x, ref_grad[i].x,
                  kTol * (ref_grad[i].norm() + 1.0));
    }
  }
}

TEST_P(PkernBackendTest, P2pSymmetricMatchesPlainWithGradients) {
  for (const std::size_t nt : {1u, 5u, 32u, 65u}) {
    const std::size_t ns = 2 * nt + 1;  // exercise unequal, tailed ranges
    const ParticleSet p = make_uniform(nt + ns, Box3{}, 555 + nt);
    // Reference: two one-directional evaluations.
    std::vector<double> ref_phi(nt + ns, 0.0);
    std::vector<Vec3> ref_grad(nt + ns);
    baseline::direct_ranges(p, 0, nt, nt, nt + ns, ref_phi.data(),
                            ref_grad.data());
    baseline::direct_ranges(p, nt, nt + ns, 0, nt, ref_phi.data() + nt,
                            ref_grad.data() + nt);
    std::vector<double> phi(nt + ns, 0.0), gx(nt + ns, 0.0), gy(nt + ns, 0.0),
        gz(nt + ns, 0.0);
    kern().p2p_symmetric(p.x().data(), p.y().data(), p.z().data(),
                         p.q().data(), 0, nt, nt, nt + ns, phi.data(),
                         gx.data(), gy.data(), gz.data(), 0.0);
    for (std::size_t i = 0; i < nt + ns; ++i) {
      EXPECT_NEAR(phi[i], ref_phi[i], kTol * std::abs(ref_phi[i]));
      const double scale = ref_grad[i].norm() + 1.0;
      EXPECT_NEAR(gx[i], ref_grad[i].x, kTol * scale);
      EXPECT_NEAR(gy[i], ref_grad[i].y, kTol * scale);
      EXPECT_NEAR(gz[i], ref_grad[i].z, kTol * scale);
    }
  }
}

TEST_P(PkernBackendTest, P2pSymmetricPotentialOnly) {
  const std::size_t nt = 19, ns = 42;
  const ParticleSet p = make_uniform(nt + ns, Box3{}, 808);
  std::vector<double> ref_phi(nt + ns, 0.0), phi(nt + ns, 0.0);
  baseline::direct_ranges_symmetric(p, 0, nt, nt, nt + ns, ref_phi.data(),
                                    nullptr);
  kern().p2p_symmetric(p.x().data(), p.y().data(), p.z().data(), p.q().data(),
                       0, nt, nt, nt + ns, phi.data(), nullptr, nullptr,
                       nullptr, 0.0);
  for (std::size_t i = 0; i < nt + ns; ++i)
    EXPECT_NEAR(phi[i], ref_phi[i], kTol * std::abs(ref_phi[i]));
}

TEST_P(PkernBackendTest, P2mMatchesScalar) {
  const anderson::Params params = anderson::params_d5_k12();
  const std::size_t k = params.k();
  const double a = 0.2;
  const Vec3 c{0.4, 0.5, 0.6};
  for (const std::size_t n : {1u, 3u, 4u, 29u, 64u}) {
    const ParticleSet p = make_uniform(n, Box3{}, 99 + n);
    std::vector<double> spx(k), spy(k), spz(k);
    for (std::size_t i = 0; i < k; ++i) {
      spx[i] = c.x + a * params.rule.points[i].x;
      spy[i] = c.y + a * params.rule.points[i].y;
      spz[i] = c.z + a * params.rule.points[i].z;
    }
    std::vector<double> g(k, 0.0), ref(k, 0.0);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        const double dx = spx[i] - p.x()[j];
        const double dy = spy[i] - p.y()[j];
        const double dz = spz[i] - p.z()[j];
        ref[i] += p.q()[j] / std::sqrt(dx * dx + dy * dy + dz * dz);
      }
    kern().p2m(spx.data(), spy.data(), spz.data(), k, p.x().data(),
               p.y().data(), p.z().data(), p.q().data(), n, g.data());
    for (std::size_t i = 0; i < k; ++i)
      EXPECT_NEAR(g[i], ref[i], kTol * std::abs(ref[i])) << "n=" << n;
  }
}

TEST_P(PkernBackendTest, L2pMatchesEvaluateInner) {
  const anderson::Params params = anderson::params_d14_k72();
  const std::size_t k = params.k();
  const double a = 0.3;
  const Vec3 c{0.5, 0.5, 0.5};
  Xoshiro256 rng(31);
  std::vector<double> sx(k), sy(k), sz(k), g(k), gw(k);
  for (std::size_t i = 0; i < k; ++i) {
    sx[i] = params.rule.points[i].x;
    sy[i] = params.rule.points[i].y;
    sz[i] = params.rule.points[i].z;
    g[i] = rng.uniform(-1.0, 1.0);
    gw[i] = g[i] * params.rule.weights[i];
  }
  for (const std::size_t n : {1u, 3u, 4u, 6u, 31u}) {
    const ParticleSet p =
        make_uniform(n, Box3{{0.35, 0.35, 0.35}, {0.65, 0.65, 0.65}}, 7 + n);
    std::vector<double> phi(n, 0.0);
    std::vector<Vec3> grad(n);
    kern().l2p(sx.data(), sy.data(), sz.data(), gw.data(), k,
               params.truncation, a, c.x, c.y, c.z, p.x().data(),
               p.y().data(), p.z().data(), n, phi.data(), grad.data());
    for (std::size_t j = 0; j < n; ++j) {
      const Vec3 x = p.position(j);
      const double ref =
          anderson::evaluate_inner(params.rule, params.truncation, a, c, g, x);
      const Vec3 ref_g = anderson::evaluate_inner_gradient(
          params.rule, params.truncation, a, c, g, x);
      EXPECT_NEAR(phi[j], ref, kTol * (std::abs(ref) + 1.0)) << "n=" << n;
      const double scale = ref_g.norm() + 1.0;
      EXPECT_NEAR(grad[j].x, ref_g.x, kTol * scale);
      EXPECT_NEAR(grad[j].y, ref_g.y, kTol * scale);
      EXPECT_NEAR(grad[j].z, ref_g.z, kTol * scale);
    }
  }
}

TEST_P(PkernBackendTest, L2pNearCentreFallback) {
  const anderson::Params params = anderson::params_d5_k12();
  const std::size_t k = params.k();
  const double a = 0.25;
  const Vec3 c{0.5, 0.5, 0.5};
  std::vector<double> sx(k), sy(k), sz(k), g(k, 1.0), gw(k);
  for (std::size_t i = 0; i < k; ++i) {
    sx[i] = params.rule.points[i].x;
    sy[i] = params.rule.points[i].y;
    sz[i] = params.rule.points[i].z;
    gw[i] = g[i] * params.rule.weights[i];
  }
  // A full register where one particle sits exactly at the sphere centre —
  // the whole block must take the scalar limit path and stay finite.
  ParticleSet p(4);
  p.set(0, c + Vec3{0.05, 0.0, 0.0}, 1.0);
  p.set(1, c, 1.0);  // exact centre
  p.set(2, c + Vec3{0.0, 1e-15, 0.0}, 1.0);  // inside the tiny-radius guard
  p.set(3, c + Vec3{0.0, 0.0, -0.1}, 1.0);
  std::vector<double> phi(4, 0.0);
  std::vector<Vec3> grad(4);
  kern().l2p(sx.data(), sy.data(), sz.data(), gw.data(), k, params.truncation,
             a, c.x, c.y, c.z, p.x().data(), p.y().data(), p.z().data(), 4,
             phi.data(), grad.data());
  for (std::size_t j = 0; j < 4; ++j) {
    const Vec3 x = p.position(j);
    const double ref =
        anderson::evaluate_inner(params.rule, params.truncation, a, c, g, x);
    EXPECT_NEAR(phi[j], ref, kTol * (std::abs(ref) + 1.0)) << "j=" << j;
    EXPECT_TRUE(std::isfinite(grad[j].x));
    EXPECT_TRUE(std::isfinite(grad[j].y));
    EXPECT_TRUE(std::isfinite(grad[j].z));
  }
  // Constant boundary data: potential is the constant, gradient ~ 0 at the
  // centre for the g == 1 monopole-like field (only n = 1 term contributes,
  // and the icosahedral points sum to zero).
  EXPECT_NEAR(phi[1], 1.0, 1e-12);
}

TEST_P(PkernBackendTest, P2p2MatchesScalar2d) {
  Xoshiro256 rng(404);
  for (const std::size_t n : {1u, 2u, 7u, 40u}) {
    std::vector<double> x(2 * n), y(2 * n), q(2 * n);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      x[i] = rng.uniform();
      y[i] = rng.uniform();
      q[i] = rng.uniform(-1.0, 1.0);
    }
    std::vector<double> phi(n, 0.0), gxy(2 * n, 0.0);
    std::vector<double> ref_phi(n, 0.0), ref_gxy(2 * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = n; j < 2 * n; ++j) {
        const double dx = x[i] - x[j], dy = y[i] - y[j];
        const double r2 = dx * dx + dy * dy;
        ref_phi[i] += -0.5 * q[j] * std::log(r2);
        ref_gxy[2 * i] += -q[j] * dx / r2;
        ref_gxy[2 * i + 1] += -q[j] * dy / r2;
      }
    kern().p2p2(x.data(), y.data(), q.data(), 0, n, n, 2 * n, phi.data(),
                gxy.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(phi[i], ref_phi[i], kTol * (std::abs(ref_phi[i]) + 1.0));
      EXPECT_NEAR(gxy[2 * i], ref_gxy[2 * i],
                  kTol * (std::abs(ref_gxy[2 * i]) + 1.0));
      EXPECT_NEAR(gxy[2 * i + 1], ref_gxy[2 * i + 1],
                  kTol * (std::abs(ref_gxy[2 * i + 1]) + 1.0));
    }
  }
}

// Kick/drift carry a BITWISE contract (the integrator's identity tests rely
// on it): every backend computes an explicit correctly-rounded FMA per
// component — std::fma here is the reference, immune to -ffp-contract —
// including sub-register tails.
TEST_P(PkernBackendTest, KickMatchesScalarBitwise) {
  Xoshiro256 rng(505);
  const double c = 0.5 * 0.003;
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 9u, 22u}) {
    std::vector<Vec3> acc(n), vel(n), ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = {rng.uniform(-9.0, 9.0), rng.uniform(-9.0, 9.0),
                rng.uniform(-9.0, 9.0)};
      vel[i] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0)};
      ref[i] = {std::fma(c, acc[i].x, vel[i].x),
                std::fma(c, acc[i].y, vel[i].y),
                std::fma(c, acc[i].z, vel[i].z)};
    }
    kern().kick(acc.data(), c, vel.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(vel[i].x, ref[i].x);
      EXPECT_EQ(vel[i].y, ref[i].y);
      EXPECT_EQ(vel[i].z, ref[i].z);
    }
  }
}

TEST_P(PkernBackendTest, DriftMatchesScalarBitwise) {
  Xoshiro256 rng(606);
  const double dt = 0.007;
  for (const std::size_t n : {0u, 1u, 3u, 4u, 6u, 13u, 32u}) {
    std::vector<Vec3> vel(n);
    std::vector<double> x(n), y(n), z(n), rx(n), ry(n), rz(n);
    for (std::size_t i = 0; i < n; ++i) {
      vel[i] = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0)};
      x[i] = rng.uniform();
      y[i] = rng.uniform();
      z[i] = rng.uniform();
      rx[i] = std::fma(dt, vel[i].x, x[i]);
      ry[i] = std::fma(dt, vel[i].y, y[i]);
      rz[i] = std::fma(dt, vel[i].z, z[i]);
    }
    kern().drift(vel.data(), dt, x.data(), y.data(), z.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x[i], rx[i]);
      EXPECT_EQ(y[i], ry[i]);
      EXPECT_EQ(z[i], rz[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PkernBackendTest,
                         ::testing::Values(pkern::KernelKind::kPortable,
                                           pkern::KernelKind::kAvx2),
                         [](const auto& info) {
                           return std::string(pkern::to_string(info.param));
                         });

TEST(PkernDispatchTest, PortableAlwaysSupported) {
  EXPECT_TRUE(pkern::kernel_supported(pkern::KernelKind::kPortable));
  EXPECT_STREQ(pkern::to_string(pkern::KernelKind::kPortable), "portable");
  EXPECT_STREQ(pkern::to_string(pkern::KernelKind::kAvx2), "avx2");
}

TEST(PkernDispatchTest, SelectKernelRoundTrips) {
  const pkern::KernelKind initial = pkern::active_kernel_kind();
  ASSERT_TRUE(pkern::select_kernel(pkern::KernelKind::kPortable));
  EXPECT_EQ(pkern::active_kernel_kind(), pkern::KernelKind::kPortable);
  EXPECT_STREQ(pkern::active_kernel().name, "portable");
  if (pkern::kernel_supported(pkern::KernelKind::kAvx2)) {
    ASSERT_TRUE(pkern::select_kernel(pkern::KernelKind::kAvx2));
    EXPECT_STREQ(pkern::active_kernel().name, "avx2");
  }
  pkern::select_kernel(initial);
}

// ---------------------------------------------------------------------------
// Near-field driver edge cases, run under both backends.
// ---------------------------------------------------------------------------

class NearFieldEdgeTest : public PkernBackendTest {};

// Runs near_field both ways and checks they agree; returns the plain result.
void expect_symmetric_agrees(const ParticleSet& p, int depth, bool with_grad,
                             double rel_tol = 1e-12) {
  const tree::Hierarchy hier(Box3{}, depth);
  const dp::BlockLayout layout(hier.boxes_per_side(depth), {1, 1, 1});
  const dp::BoxedParticles boxed = dp::coordinate_sort(p, hier, layout);
  const std::size_t n = p.size();
  std::vector<double> phi_a(n, 0.0), phi_b(n, 0.0);
  std::vector<Vec3> grad_a(with_grad ? n : 0), grad_b(with_grad ? n : 0);
  core::NearFieldScratch scratch;
  const std::vector<tree::Offset> full = tree::near_field_offsets(2);
  const std::vector<tree::Offset> half = tree::near_field_half_offsets(2);
  const auto ra =
      core::near_field(hier, boxed, full, false, phi_a, grad_a,
                       ThreadPool::global(), &scratch);
  const auto rb =
      core::near_field(hier, boxed, half, true, phi_b, grad_b,
                       ThreadPool::global(), &scratch);
  // The symmetric pass visits every cross-box pair once instead of twice.
  EXPECT_LE(rb.pair_interactions, ra.pair_interactions);
  EXPECT_LE(rb.box_interactions, ra.box_interactions);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(phi_a[i], phi_b[i], rel_tol * (std::abs(phi_a[i]) + 1.0));
    if (with_grad) {
      const double scale = grad_a[i].norm() + 1.0;
      EXPECT_NEAR(grad_a[i].x, grad_b[i].x, rel_tol * scale);
      EXPECT_NEAR(grad_a[i].y, grad_b[i].y, rel_tol * scale);
      EXPECT_NEAR(grad_a[i].z, grad_b[i].z, rel_tol * scale);
    }
  }
}

TEST_P(NearFieldEdgeTest, SymmetricAgreesWithPlainGradients) {
  expect_symmetric_agrees(make_uniform(2000, Box3{}, 2024), 3, true);
}

TEST_P(NearFieldEdgeTest, MostlyEmptyBoxes) {
  // All particles in one corner octant: the vast majority of leaf boxes are
  // empty, including whole neighbor stencils.
  const ParticleSet p =
      make_uniform(300, Box3{{0.0, 0.0, 0.0}, {0.12, 0.12, 0.12}}, 5);
  expect_symmetric_agrees(p, 3, true);
}

TEST_P(NearFieldEdgeTest, SingleParticleBoxes) {
  // Fewer particles than leaf boxes: occupied boxes mostly hold exactly one
  // particle, so intra-box terms vanish and every contribution crosses
  // boxes.
  const ParticleSet p = make_uniform(40, Box3{}, 6);
  expect_symmetric_agrees(p, 3, true);
}

TEST_P(NearFieldEdgeTest, BoundaryBoxesTruncatedStencils) {
  // Particles pinned to faces, edges and corners of the domain, where the
  // separation-2 stencil is maximally truncated by the boundary.
  ParticleSet p(200);
  Xoshiro256 rng(7);
  for (std::size_t i = 0; i < p.size(); ++i) {
    Vec3 v{rng.uniform(), rng.uniform(), rng.uniform()};
    switch (i % 4) {
      case 0: v.x = 0.001; break;           // face
      case 1: v.x = 0.999; v.y = 0.001; break;  // edge
      case 2:  // corner box (positions jittered — coincident points are UB)
        v = {0.99 + 0.009 * rng.uniform(), 0.99 + 0.009 * rng.uniform(),
             0.99 + 0.009 * rng.uniform()};
        break;
      default: break;                       // interior
    }
    p.set(i, v, rng.uniform(-1.0, 1.0));
  }
  expect_symmetric_agrees(p, 3, true);
}

TEST_P(NearFieldEdgeTest, ScratchReuseIsDeterministic) {
  const ParticleSet p = make_uniform(500, Box3{}, 99);
  const tree::Hierarchy hier(Box3{}, 2);
  const dp::BlockLayout layout(hier.boxes_per_side(2), {1, 1, 1});
  const dp::BoxedParticles boxed = dp::coordinate_sort(p, hier, layout);
  core::NearFieldScratch scratch;
  const std::vector<tree::Offset> half = tree::near_field_half_offsets(2);
  std::vector<double> first(p.size(), 0.0), second(p.size(), 0.0);
  std::vector<Vec3> g1(p.size()), g2(p.size());
  core::near_field(hier, boxed, half, true, first, g1, ThreadPool::global(),
                   &scratch);
  // Later calls reuse the (now dirty) scratch on pools of every size; the
  // chunk split is fixed by the box count, so the bits must be identical.
  ThreadPool one(1), two(2), three(3);
  for (ThreadPool* pool : {&one, &two, &three, &ThreadPool::global()}) {
    SCOPED_TRACE(pool->size());
    std::fill(second.begin(), second.end(), 0.0);
    std::fill(g2.begin(), g2.end(), Vec3{});
    core::near_field(hier, boxed, half, true, second, g2, *pool, &scratch);
    EXPECT_EQ(std::memcmp(first.data(), second.data(),
                          first.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(g1.data(), g2.data(), g1.size() * sizeof(Vec3)), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, NearFieldEdgeTest,
                         ::testing::Values(pkern::KernelKind::kPortable,
                                           pkern::KernelKind::kAvx2),
                         [](const auto& info) {
                           return std::string(pkern::to_string(info.param));
                         });

// ---------------------------------------------------------------------------
// Packed write windows against N-length chunk buffers: every chunk form,
// evaluated into its window and reduced by near_field_accumulate, must give
// the bits of the same chunks evaluated into full N-length buffers (the
// layout before windows) and summed in chunk order.
// ---------------------------------------------------------------------------

struct PRange {
  std::size_t b = 0, e = 0;
};
// The (target, source) range pairs one chunk evaluates, in its order; an
// intra-box pair has source == target.
using RangePairs = std::vector<std::pair<PRange, PRange>>;

PRange leaf_of(const dp::BoxedParticles& boxed, std::size_t flat) {
  const std::uint32_t r = boxed.flat_to_rank[flat];
  return {boxed.box_begin[r], boxed.box_begin[r + 1]};
}

// The uniform-leaf chunk walk: each listed leaf's intra-box pair, then its
// non-empty neighbours in offset order (wrapped when periodic).
RangePairs box_walk(const tree::Hierarchy& hier,
                    const dp::BoxedParticles& boxed,
                    const std::vector<tree::Offset>& offsets, bool periodic,
                    std::span<const std::uint32_t> flats) {
  const int h = hier.depth();
  const std::int32_t n = hier.boxes_per_side(h);
  RangePairs out;
  for (const std::uint32_t f : flats) {
    const PRange t = leaf_of(boxed, f);
    if (t.e == t.b) continue;
    if (t.e - t.b > 1) out.push_back({t, t});
    const tree::BoxCoord c = hier.coord_of(h, f);
    for (const tree::Offset& o : offsets) {
      if (o == tree::Offset{0, 0, 0}) continue;
      tree::BoxCoord nb{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
      if (periodic) {
        nb = {(nb.ix + n) % n, (nb.iy + n) % n, (nb.iz + n) % n};
      } else if (nb.ix < 0 || nb.ix >= n || nb.iy < 0 || nb.iy >= n ||
                 nb.iz < 0 || nb.iz >= n) {
        continue;
      }
      const PRange s = leaf_of(boxed, hier.flat_index(h, nb));
      if (s.e > s.b) out.push_back({t, s});
    }
  }
  return out;
}

// The adaptive chunk walk over `plan`.
RangePairs plan_walk(const core::AdaptiveLeafPlan& plan,
                     std::span<const std::uint32_t> leaves) {
  const auto leaf = [&plan](std::size_t li) {
    return PRange{plan.leaf_bounds[2 * li], plan.leaf_bounds[2 * li + 1]};
  };
  RangePairs out;
  for (const std::uint32_t li : leaves) {
    const PRange t = leaf(li);
    if (t.e == t.b) continue;
    if (t.e - t.b > 1) out.push_back({t, t});
    for (std::uint32_t pi = plan.pair_begin[li]; pi < plan.pair_begin[li + 1];
         ++pi) {
      const PRange s = leaf(plan.pair_leaf[pi]);
      if (s.e > s.b) out.push_back({t, s});
    }
  }
  return out;
}

// One chunk into N-length buffers: the same kernel calls as the chunk
// forms, symmetric pairs through a pair buffer added targets then sources.
void full_length_chunk(const dp::BoxedParticles& boxed,
                       const core::NearKernel& kern, bool symmetric,
                       bool with_grad, const RangePairs& pairs,
                       std::vector<double>& phi, std::vector<Vec3>& grad) {
  const pkern::KernelBackend& back = pkern::active_kernel();
  const ParticleSet& p = boxed.sorted;
  const double *x = p.x().data(), *y = p.y().data(), *z = p.z().data(),
               *q = p.q().data();
  const bool vdw = kern.type == core::KernelType::kVanDerWaals;
  phi.assign(p.size(), 0.0);
  grad.assign(with_grad ? p.size() : 0, Vec3{});
  std::vector<double> pp, gx, gy, gz;
  for (const auto& [t, s] : pairs) {
    if (!symmetric || s.b == t.b) {
      Vec3* g = with_grad ? grad.data() + t.b : nullptr;
      if (vdw)
        back.p2p_vdw(x, y, z, kern.types, t.b, t.e, s.b, s.e,
                     phi.data() + t.b, g, kern.vdw);
      else
        back.p2p(x, y, z, q, t.b, t.e, s.b, s.e, phi.data() + t.b, g,
                 kern.soft2);
      continue;
    }
    const std::size_t nt = t.e - t.b, tot = nt + (s.e - s.b);
    pp.assign(tot, 0.0);
    gx.assign(tot, 0.0);
    gy.assign(tot, 0.0);
    gz.assign(tot, 0.0);
    double* gxp = with_grad ? gx.data() : nullptr;
    if (vdw)
      back.p2p_vdw_symmetric(x, y, z, kern.types, t.b, t.e, s.b, s.e,
                             pp.data(), gxp, gy.data(), gz.data(), kern.vdw);
    else
      back.p2p_symmetric(x, y, z, q, t.b, t.e, s.b, s.e, pp.data(), gxp,
                         gy.data(), gz.data(), kern.soft2);
    for (const auto& [r, at] : {std::pair{t, std::size_t{0}}, std::pair{s, nt}})
      for (std::size_t i = 0; i < r.e - r.b; ++i) {
        phi[r.b + i] += pp[at + i];
        if (with_grad)
          grad[r.b + i] += Vec3{gx[at + i], gy[at + i], gz[at + i]};
      }
  }
}

class NearWindowTest : public PkernBackendTest {
 protected:
  // Runs `chunks` equal slices of `items`: each slice through `chunk` (the
  // windowed form under test, writing scr.chunks[c]) and through the
  // full-length reference over `walk(slice)`. The windows are reduced over
  // irregular accumulate ranges; the reference adds its N-length buffers
  // in chunk order. Requires bitwise-equal phi and gradient.
  template <typename Chunk, typename Walk>
  void expect_windows_match(const dp::BoxedParticles& boxed,
                            const core::NearKernel& kern, bool symmetric,
                            bool with_grad,
                            std::span<const std::uint32_t> items,
                            std::size_t chunks, Chunk chunk, Walk walk) {
    const std::size_t n = boxed.sorted.size();
    core::NearFieldScratch scr;
    scr.chunks.resize(chunks);
    std::vector<double> ref_phi(n, 0.0), phi(n, 0.0), cphi;
    std::vector<Vec3> ref_grad(with_grad ? n : 0), grad(with_grad ? n : 0),
        cgrad;
    const std::size_t step = (items.size() + chunks - 1) / chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = std::min(items.size(), c * step);
      const auto slice =
          items.subspan(lo, std::min(items.size(), lo + step) - lo);
      chunk(scr.chunks[c], slice);
      full_length_chunk(boxed, kern, symmetric, with_grad, walk(slice), cphi,
                        cgrad);
      for (std::size_t i = 0; i < n; ++i) {
        ref_phi[i] += cphi[i];
        if (with_grad) ref_grad[i] += cgrad[i];
      }
    }
    for (std::size_t lo = 0; lo < n; lo += 997)
      core::near_field_accumulate(scr, chunks, with_grad, phi, grad, lo,
                                  std::min(n, lo + 997));
    EXPECT_EQ(std::memcmp(phi.data(), ref_phi.data(), n * sizeof(double)), 0);
    if (with_grad) {
      EXPECT_EQ(std::memcmp(grad.data(), ref_grad.data(), n * sizeof(Vec3)),
                0);
    }
    // The windows hold less than the chunks x N of full-length buffers.
    std::size_t window = 0;
    for (std::size_t c = 0; c < chunks; ++c)
      window += scr.chunks[c].phi.size();
    EXPECT_LT(window, chunks * n);
    last_scratch_ = std::move(scr);
  }

  // The occupied leaves of `boxed` in sort-rank (Morton) order.
  static std::vector<std::uint32_t> morton_leaves(
      const dp::BoxedParticles& boxed) {
    std::vector<std::uint32_t> out;
    for (std::size_t r = 0; r + 1 < boxed.box_begin.size(); ++r)
      if (boxed.box_begin[r + 1] > boxed.box_begin[r])
        out.push_back(boxed.rank_to_flat[r]);
    return out;
  }

  core::NearFieldScratch last_scratch_;
};

dp::BoxedParticles sort_for(const ParticleSet& p, const tree::Hierarchy& hier) {
  const int h = hier.depth();
  return dp::coordinate_sort(
      p, hier, dp::BlockLayout(hier.boxes_per_side(h), {1, 1, 1}));
}

TEST_P(NearWindowTest, BoxRangeChunksMatchFullLengthBuffers) {
  const tree::Hierarchy hier(Box3{}, 3);
  const dp::BoxedParticles boxed =
      sort_for(make_uniform(3000, Box3{}, 81), hier);
  std::vector<std::uint32_t> flats(hier.boxes_at(3));
  for (std::size_t f = 0; f < flats.size(); ++f)
    flats[f] = static_cast<std::uint32_t>(f);
  const core::NearKernel kern{0.0};
  for (const bool symmetric : {true, false})
    for (const bool with_grad : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "sym=" << symmetric
                                        << " grad=" << with_grad);
      const std::vector<tree::Offset> offsets =
          symmetric ? tree::near_field_half_offsets(2)
                    : tree::near_field_offsets(2);
      expect_windows_match(
          boxed, kern, symmetric, with_grad, flats, 16,
          [&](core::NearFieldScratch::Chunk& ch, auto slice) {
            core::near_field_chunk(hier, boxed, offsets, symmetric, with_grad,
                                   ch, slice.front(), slice.back() + 1, kern);
          },
          [&](auto slice) {
            return box_walk(hier, boxed, offsets, false, slice);
          });
    }
}

TEST_P(NearWindowTest, ActiveListChunksMatchFullLengthBuffers) {
  // Clustered input: many empty leaves, so list slices skip whole regions.
  const tree::Hierarchy hier(Box3{}, 3);
  const dp::BoxedParticles boxed =
      sort_for(make_plummer(3000, Box3{}, 82), hier);
  const std::vector<std::uint32_t> leaves = morton_leaves(boxed);
  const core::NearKernel kern{1e-3};
  for (const bool symmetric : {true, false})
    for (const bool with_grad : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "sym=" << symmetric
                                        << " grad=" << with_grad);
      const std::vector<tree::Offset> offsets =
          symmetric ? tree::near_field_half_offsets(2)
                    : tree::near_field_offsets(2);
      expect_windows_match(
          boxed, kern, symmetric, with_grad, leaves, 16,
          [&](core::NearFieldScratch::Chunk& ch, auto slice) {
            core::near_field_chunk(hier, boxed, offsets, symmetric, with_grad,
                                   ch, slice, kern);
          },
          [&](auto slice) {
            return box_walk(hier, boxed, offsets, false, slice);
          });
    }
}

TEST_P(NearWindowTest, AdaptiveChunksMatchFullLengthBuffers) {
  // A leaf plan over the depth-3 leaves: leaf id = sort rank, each leaf
  // owning its half-list neighbours; chunks list the leaves in Morton order.
  const tree::Hierarchy hier(Box3{}, 3);
  const dp::BoxedParticles boxed =
      sort_for(make_plummer(3000, Box3{}, 83), hier);
  const std::vector<tree::Offset> half = tree::near_field_half_offsets(2);
  const std::int32_t n = hier.boxes_per_side(3);
  const std::size_t leaves = hier.boxes_at(3);
  std::vector<std::uint32_t> bounds, pair_begin{0}, pair_leaf, order;
  for (std::size_t r = 0; r < leaves; ++r) {
    bounds.push_back(boxed.box_begin[r]);
    bounds.push_back(boxed.box_begin[r + 1]);
    const tree::BoxCoord c = hier.coord_of(3, boxed.rank_to_flat[r]);
    for (const tree::Offset& o : half) {
      const tree::BoxCoord nb{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
      if (nb.ix < 0 || nb.ix >= n || nb.iy < 0 || nb.iy >= n || nb.iz < 0 ||
          nb.iz >= n)
        continue;
      pair_leaf.push_back(boxed.flat_to_rank[hier.flat_index(3, nb)]);
    }
    pair_begin.push_back(static_cast<std::uint32_t>(pair_leaf.size()));
    order.push_back(static_cast<std::uint32_t>(r));
  }
  const core::AdaptiveLeafPlan plan{bounds, pair_begin, pair_leaf};
  const core::NearKernel kern{1e-3};
  for (const bool with_grad : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "grad=" << with_grad);
    expect_windows_match(
        boxed, kern, /*symmetric=*/true, with_grad, order, 16,
        [&](core::NearFieldScratch::Chunk& ch, auto slice) {
          core::near_field_adaptive_chunk(boxed, plan, with_grad, ch, slice,
                                          kern);
        },
        [&](auto slice) { return plan_walk(plan, slice); });
  }
}

TEST_P(NearWindowTest, PeriodicVdwWindowsReachTheFarEnd) {
  // Wrapped partners of the first Morton leaves sit in the upper half of
  // the sorted particles, so the first chunk's window holds ranges from
  // both ends of the particle order.
  const tree::Hierarchy hier(Box3{}, 3);
  const dp::BoxedParticles boxed =
      sort_for(make_uniform(3000, Box3{}, 84), hier);
  std::vector<std::int32_t> types(boxed.sorted.size());
  for (std::size_t i = 0; i < types.size(); ++i)
    types[i] = static_cast<std::int32_t>(i % 2);
  const std::vector<double> rmin2{0.0121, 0.015625, 0.015625, 0.0196};
  const std::vector<double> eps{1.0, 0.7, 0.7, 0.5};
  core::NearKernel kern;
  kern.type = core::KernelType::kVanDerWaals;
  kern.types = types.data();
  kern.vdw.rmin2 = rmin2.data();
  kern.vdw.eps = eps.data();
  kern.vdw.ntypes = 2;
  kern.vdw.cuton2 = 0.16 * 0.16;
  kern.vdw.cutoff2 = 0.22 * 0.22;
  kern.vdw.cm3o = kern.vdw.cutoff2 - 3.0 * kern.vdw.cuton2;
  const double denom = kern.vdw.cutoff2 - kern.vdw.cuton2;
  kern.vdw.inv_denom = 1.0 / (denom * denom * denom);
  kern.vdw.inv_denom6 = 6.0 * kern.vdw.inv_denom;
  kern.vdw.period = 1.0;
  kern.vdw.inv_period = 1.0;
  const std::vector<std::uint32_t> leaves = morton_leaves(boxed);
  for (const bool symmetric : {true, false})
    for (const bool with_grad : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "sym=" << symmetric
                                        << " grad=" << with_grad);
      const std::vector<tree::Offset> offsets =
          symmetric ? tree::near_field_half_offsets(2)
                    : tree::near_field_offsets(2);
      expect_windows_match(
          boxed, kern, symmetric, with_grad, leaves, 16,
          [&](core::NearFieldScratch::Chunk& ch, auto slice) {
            core::near_field_chunk(hier, boxed, offsets, symmetric, with_grad,
                                   ch, slice, kern);
          },
          [&](auto slice) {
            return box_walk(hier, boxed, offsets, true, slice);
          });
      if (symmetric) {
        const auto& seg = last_scratch_.chunks[0].seg;
        ASSERT_FALSE(seg.empty());
        EXPECT_EQ(seg.front().begin, 0u);
        EXPECT_GE(seg.back().begin, boxed.sorted.size() / 2);
      }
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, NearWindowTest,
                         ::testing::Values(pkern::KernelKind::kPortable,
                                           pkern::KernelKind::kAvx2),
                         [](const auto& info) {
                           return std::string(pkern::to_string(info.param));
                         });

}  // namespace
}  // namespace hfmm
