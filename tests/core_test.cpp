// Integration tests: the full FMM pipeline against direct summation, across
// execution modes, aggregation modes, separations, supernodes, and particle
// distributions.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <tuple>

#include "hfmm/baseline/direct.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/errors.hpp"

namespace hfmm::core {
namespace {

FmmConfig base_config() {
  FmmConfig cfg;
  cfg.depth = 3;
  return cfg;
}

double solve_and_compare(const FmmConfig& cfg, const ParticleSet& p,
                         FmmResult* out = nullptr) {
  FmmSolver solver(cfg);
  FmmResult r = solver.solve(p);
  const baseline::DirectResult d = baseline::direct_all(p, false);
  const ErrorNorms e = compare_fields(r.phi, d.phi);
  if (out != nullptr) *out = std::move(r);
  return e.rms_rel;
}

using ModeAgg = std::tuple<ExecutionMode, AggregationMode>;

class ExecutionMatrix : public ::testing::TestWithParam<ModeAgg> {};

TEST_P(ExecutionMatrix, MatchesDirectSummation) {
  const auto [mode, agg] = GetParam();
  FmmConfig cfg = base_config();
  cfg.mode = mode;
  cfg.aggregation = agg;
  const ParticleSet p = make_uniform(1200, Box3{}, 61);
  EXPECT_LT(solve_and_compare(cfg, p), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    ModesTimesAggregation, ExecutionMatrix,
    ::testing::Combine(::testing::Values(ExecutionMode::kSequential,
                                         ExecutionMode::kThreads,
                                         ExecutionMode::kDataParallel),
                       ::testing::Values(AggregationMode::kGemv,
                                         AggregationMode::kGemm)),
    [](const auto& info) {
      std::string s = std::string(to_string(std::get<0>(info.param))) + "_" +
                      to_string(std::get<1>(info.param));
      for (char& c : s)
        if (c == '-') c = '_';
      return s;
    });

TEST(FmmSolverTest, AllModesAgreeWithEachOther) {
  const ParticleSet p = make_uniform(900, Box3{}, 62);
  std::vector<std::vector<double>> results;
  for (const ExecutionMode mode :
       {ExecutionMode::kSequential, ExecutionMode::kThreads,
        ExecutionMode::kDataParallel}) {
    FmmConfig cfg = base_config();
    cfg.mode = mode;
    FmmSolver solver(cfg);
    results.push_back(solver.solve(p).phi);
  }
  // Identical algorithm, different executors: agreement to rounding noise.
  for (std::size_t m = 1; m < results.size(); ++m) {
    const ErrorNorms e = compare_fields(results[m], results[0]);
    EXPECT_LT(e.max_rel, 1e-9) << "mode " << m;
  }
}

TEST(FmmSolverTest, AggregationModesAgreeExactlyInStructure) {
  const ParticleSet p = make_uniform(700, Box3{}, 63);
  std::vector<std::vector<double>> results;
  for (const AggregationMode agg :
       {AggregationMode::kGemv, AggregationMode::kGemm}) {
    FmmConfig cfg = base_config();
    cfg.aggregation = agg;
    FmmSolver solver(cfg);
    results.push_back(solver.solve(p).phi);
  }
  for (std::size_t m = 1; m < results.size(); ++m) {
    const ErrorNorms e = compare_fields(results[m], results[0]);
    EXPECT_LT(e.max_rel, 1e-10);
  }
}

class SeparationTest : public ::testing::TestWithParam<int> {};

TEST_P(SeparationTest, WorksAndConverges) {
  FmmConfig cfg = base_config();
  cfg.separation = GetParam();
  const ParticleSet p = make_uniform(800, Box3{}, 64);
  // d = 1 is less accurate than d = 2 but must still produce a sane field.
  EXPECT_LT(solve_and_compare(cfg, p), GetParam() == 1 ? 2e-2 : 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Separations, SeparationTest, ::testing::Values(1, 2));

TEST(FmmSolverTest, SupernodesSlightlyLessAccurateMuchCheaper) {
  const ParticleSet p = make_uniform(1500, Box3{}, 65);
  FmmConfig plain = base_config();
  FmmConfig super = base_config();
  super.supernodes = true;
  FmmResult rp, rs;
  const double ep = solve_and_compare(plain, p, &rp);
  const double es = solve_and_compare(super, p, &rs);
  EXPECT_LT(ep, 1e-3);
  EXPECT_LT(es, 3e-3);           // "slightly decreased accuracy" (Section 2.3)
  EXPECT_LT(es, 20 * ep + 1e-9);
  // 189 vs 875 translations per box: at least 3x fewer interactive flops.
  EXPECT_LT(rs.breakdown["interactive"].flops * 3,
            rp.breakdown["interactive"].flops);
}

// Guards the supernode gather-plan rewrite: every aggregation mode must
// produce the same supernode physics, and the supernode approximation must
// stay within solver tolerance of the plain interactive field.
class SupernodeAggregation : public ::testing::TestWithParam<AggregationMode> {
};

TEST_P(SupernodeAggregation, AgreesWithPlainSolverAndAcrossModes) {
  const ParticleSet p = make_uniform(1100, Box3{}, 78);
  FmmConfig super = base_config();
  super.supernodes = true;
  super.aggregation = GetParam();
  FmmConfig plain = base_config();
  plain.aggregation = GetParam();
  FmmSolver ssol(super), psol(plain);
  const FmmResult rs = ssol.solve(p);
  const FmmResult rp = psol.solve(p);
  // Supernodes change the approximation slightly (Section 2.3), not the
  // physics: the two solvers agree to solver tolerance...
  EXPECT_LT(compare_fields(rs.phi, rp.phi).rms_rel, 3e-3);
  // ...and the mode only changes the BLAS shape, not the arithmetic result.
  FmmConfig ref_cfg = super;
  ref_cfg.aggregation = AggregationMode::kGemv;
  FmmSolver ref_solver(ref_cfg);
  const FmmResult ref = ref_solver.solve(p);
  EXPECT_LT(compare_fields(rs.phi, ref.phi).max_rel, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Modes, SupernodeAggregation,
                         ::testing::Values(AggregationMode::kGemv,
                                           AggregationMode::kGemm),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(FmmSolverTest, SupernodeDeepHierarchyStaysAccurate) {
  // Depth 4 exercises gather-plan rectangles clipped on every face.
  FmmConfig cfg;
  cfg.depth = 4;
  cfg.supernodes = true;
  cfg.aggregation = AggregationMode::kGemm;
  const ParticleSet p = make_uniform(3000, Box3{}, 79);
  EXPECT_LT(solve_and_compare(cfg, p), 3e-3);
}

TEST(FmmSolverTest, GradientMatchesDirect) {
  FmmConfig cfg = base_config();
  cfg.with_gradient = true;
  const ParticleSet p = make_uniform(800, Box3{}, 66);
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  const baseline::DirectResult d = baseline::direct_all(p, true);
  const ErrorNorms e = compare_fields(r.grad, d.grad);
  EXPECT_LT(e.rms_rel, 2e-2);
}

TEST(FmmSolverTest, HigherOrderIsMoreAccurate) {
  const ParticleSet p = make_uniform(600, Box3{}, 67);
  double prev = 1.0;
  for (const int order : {5, 9}) {
    FmmConfig cfg = base_config();
    cfg.params = anderson::params_for_order(order);
    const double err = solve_and_compare(cfg, p);
    EXPECT_LT(err, prev);
    prev = err;
  }
  EXPECT_LT(prev, 3e-5);
}

TEST(FmmSolverTest, PaperAccuracyHeadlines) {
  // Abstract: "four and seven digits of accuracy" for D = 5 and D = 14.
  const ParticleSet p = make_uniform(2000, Box3{}, 68);
  {
    FmmConfig cfg = base_config();
    cfg.params = anderson::params_d5_k12();
    const double err = solve_and_compare(cfg, p);
    EXPECT_GT(digits(err), 3.3);  // ~4 digits
  }
  {
    FmmConfig cfg = base_config();
    cfg.params = anderson::params_for_order(14);
    const double err = solve_and_compare(cfg, p);
    EXPECT_GT(digits(err), 6.0);  // ~7 digits
  }
}

class DistributionTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributionTest, AccurateOnNonuniformInputs) {
  ParticleSet p;
  switch (GetParam()) {
    case 0: p = make_plummer(1000, Box3{}, 69); break;
    case 1: p = make_two_clusters(1000, Box3{}, 70); break;
    case 2: p = make_plasma(1000, Box3{}, 71); break;
  }
  FmmConfig cfg = base_config();
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  const baseline::DirectResult d = baseline::direct_all(p, false);
  // Plasma fields pass through zero; use the error relative to the mean
  // magnitude (the paper's Table 1 metric) instead of pointwise relative.
  const ErrorNorms e = compare_fields(r.phi, d.phi);
  EXPECT_LT(e.rel_to_mean, 5e-2);
}

INSTANTIATE_TEST_SUITE_P(Distributions, DistributionTest,
                         ::testing::Values(0, 1, 2));

TEST(FmmSolverTest, AutomaticDepthMatchesOccupancyRule) {
  FmmConfig cfg;
  cfg.particles_per_leaf = 16.0;
  FmmSolver solver(cfg);
  EXPECT_EQ(solver.depth_for(16 * 512), 3);
  EXPECT_EQ(solver.depth_for(100), 2);  // floor at depth 2
}

TEST(FmmSolverTest, EmptyAndTinyInputs) {
  FmmConfig cfg;
  FmmSolver solver(cfg);
  const FmmResult empty = solver.solve(ParticleSet{});
  EXPECT_TRUE(empty.phi.empty());

  ParticleSet two(2);
  two.set(0, {0.2, 0.2, 0.2}, 1.0);
  two.set(1, {0.8, 0.8, 0.8}, 1.0);
  const FmmResult r = solver.solve(two);
  const double dist = (two.position(0) - two.position(1)).norm();
  EXPECT_NEAR(r.phi[0], 1.0 / dist, 5e-3 / dist);
}

TEST(FmmSolverTest, NonFiniteInputThrowsInvalidArgument) {
  // Each of x, y, z and q in turn carries a NaN or an infinity; every
  // executor rejects the input before the sort turns it into a box index.
  const ParticleSet p = make_uniform(300, Box3{}, 8);
  for (const ExecutionMode mode :
       {ExecutionMode::kSequential, ExecutionMode::kThreads,
        ExecutionMode::kDataParallel}) {
    FmmConfig cfg = base_config();
    cfg.mode = mode;
    FmmSolver solver(cfg);
    for (int channel = 0; channel < 4; ++channel) {
      for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        ParticleSet q = p;
        Vec3 x = q.position(17);
        double charge = q.charge(17);
        if (channel == 0) x.x = bad;
        if (channel == 1) x.y = bad;
        if (channel == 2) x.z = bad;
        if (channel == 3) charge = bad;
        q.set(17, x, charge);
        EXPECT_THROW(solver.solve(q), std::invalid_argument)
            << static_cast<int>(mode) << " channel " << channel;
      }
    }
    // The rejected calls leave the solver usable.
    EXPECT_EQ(solver.solve(p).phi.size(), p.size());
  }
}

TEST(FmmSolverTest, BreakdownCoversAllPhases) {
  FmmConfig cfg = base_config();
  const ParticleSet p = make_uniform(500, Box3{}, 72);
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  for (const char* phase :
       {"sort", "p2m", "upward", "interactive", "l2p", "near"})
    EXPECT_TRUE(r.breakdown.phases().count(phase)) << phase;
  EXPECT_GT(r.breakdown.total_flops(), 0u);
}

TEST(FmmSolverTest, DataParallelModeCountsCommunication) {
  FmmConfig cfg = base_config();
  cfg.mode = ExecutionMode::kDataParallel;
  cfg.machine = {2, 2, 2};
  const ParticleSet p = make_uniform(800, Box3{}, 73);
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  EXPECT_GT(r.comm.off_vu_bytes, 0u);
  EXPECT_GT(r.comm.messages, 0u);
  EXPECT_GT(r.breakdown.phases().at("comm").seconds, 0.0);
}

class DpHaloStrategyTest : public ::testing::TestWithParam<dp::HaloStrategy> {
};

TEST_P(DpHaloStrategyTest, AllHaloStrategiesGiveSamePhysics) {
  FmmConfig cfg = base_config();
  cfg.mode = ExecutionMode::kDataParallel;
  cfg.machine = {2, 2, 2};
  cfg.halo = GetParam();
  const ParticleSet p = make_uniform(600, Box3{}, 74);
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  const baseline::DirectResult d = baseline::direct_all(p, false);
  EXPECT_LT(compare_fields(r.phi, d.phi).rms_rel, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DpHaloStrategyTest,
    ::testing::Values(dp::HaloStrategy::kGhostSections,
                      dp::HaloStrategy::kSubgridSnake,
                      dp::HaloStrategy::kLinearizedCshift),
    [](const auto& info) {
      std::string s = dp::to_string(info.param);
      for (char& c : s)
        if (c == '-' || c == '/') c = '_';
      return s;
    });

TEST(FmmSolverTest, DpEmbedMethodsAgree) {
  const ParticleSet p = make_uniform(500, Box3{}, 75);
  std::vector<std::vector<double>> phis;
  for (const dp::EmbedMethod m :
       {dp::EmbedMethod::kLocalCopy, dp::EmbedMethod::kGeneralSend}) {
    FmmConfig cfg = base_config();
    cfg.mode = ExecutionMode::kDataParallel;
    cfg.embed = m;
    FmmSolver solver(cfg);
    phis.push_back(solver.solve(p).phi);
  }
  EXPECT_LT(compare_fields(phis[1], phis[0]).max_rel, 1e-12);
}

TEST(FmmSolverTest, ConfigValidation) {
  FmmConfig cfg;
  cfg.separation = 0;
  EXPECT_THROW(FmmSolver{cfg}, std::invalid_argument);
  cfg = FmmConfig{};
  cfg.depth = 1;
  EXPECT_THROW(FmmSolver{cfg}, std::invalid_argument);
  cfg = FmmConfig{};
  cfg.supernodes = true;
  cfg.separation = 1;
  EXPECT_THROW(FmmSolver{cfg}, std::invalid_argument);
}

TEST(FmmSolverTest, ResultsInOriginalParticleOrder) {
  // Tag particles by charge and verify phi lines up after the unsort.
  ParticleSet p = make_uniform(300, Box3{}, 76);
  FmmConfig cfg = base_config();
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  const baseline::DirectResult d = baseline::direct_all(p, false);
  for (std::size_t i = 0; i < 300; i += 37)
    EXPECT_NEAR(r.phi[i], d.phi[i], 5e-3 * std::abs(d.phi[i]));
}

}  // namespace
}  // namespace hfmm::core
