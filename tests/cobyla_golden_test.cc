// Golden bits for COBYLA: exact x, value and evaluation counts recorded from
// the solver before its linear algebra was restructured (factor-once model
// fits, one constraint sweep per subgradient step). Any change that
// reassociates a floating-point sum inside the solver moves these bits --
// and with them the Stage-2 decisions of every Faro run. See DESIGN.md,
// "Bit-identity rules for solver linear algebra".

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/objectives.h"
#include "src/optim/cobyla.h"

namespace faro {
namespace {

struct Golden {
  int evaluations;
  double value;
  std::vector<double> x;
};

void ExpectBits(const OptimResult& got, const Golden& want) {
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.value), std::bit_cast<uint64_t>(want.value))
      << std::hexfloat << got.value << " vs " << want.value;
  ASSERT_EQ(got.x.size(), want.x.size());
  for (size_t k = 0; k < got.x.size(); ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.x[k]), std::bit_cast<uint64_t>(want.x[k]))
        << "x[" << k << "] " << std::hexfloat << got.x[k] << " vs " << want.x[k];
  }
}

// bench_micro_kernels' MakeStandardObjective, with the objective kind open.
ClusterObjective MakeStandardObjective(size_t jobs, ObjectiveKind kind) {
  std::vector<JobContext> contexts(jobs);
  for (size_t i = 0; i < jobs; ++i) {
    contexts[i].spec.processing_time = 0.18;
    contexts[i].spec.slo = 0.72;
    contexts[i].predicted_load.assign(6, 10.0 + 3.0 * static_cast<double>(i));
  }
  ClusterObjectiveConfig config;
  config.kind = kind;
  return ClusterObjective(std::move(contexts), ClusterResources{36.0, 36.0}, config);
}

// BM_CobylaStage2Solve's solve.
OptimResult SolveStandard(size_t jobs, ObjectiveKind kind) {
  const auto objective = MakeStandardObjective(jobs, kind);
  const Problem problem = objective.BuildProblem();
  CobylaConfig config;
  config.rho_begin = 2.0;
  config.rho_end = 1e-3;
  return Cobyla(problem, objective.InitialPoint(), config);
}

TEST(CobylaGoldenTest, FairSum10Jobs) {
  ExpectBits(SolveStandard(10, ObjectiveKind::kFairSum),
             {191,
              -0x1.5fbf34f6da202p-15,
              {0x1.00008e5a1b8d3p+0, 0x1.4f01b179d3a1bp+0, 0x1.80578f6965549p+0,
               0x1.a256247166fbcp+0, 0x1.bb2468aa03949p+0, 0x1.cda5e8a976191p+0,
               0x1.dc9c27139ffd8p+0, 0x1.e8790fa0b346p+0, 0x1.f23a4508dcea1p+0,
               0x1.fa642ed306211p+0}});
}

TEST(CobylaGoldenTest, FairSum20Jobs) {
  ExpectBits(SolveStandard(20, ObjectiveKind::kFairSum),
             {351,
              0x1.5849c4623612fp-15,
              {0x1.00000449f96b9p+0, 0x1.3c699eed13122p+0, 0x1.7b18ca6edbdbdp+0,
               0x1.826db70331b4ep+0, 0x1.790dc1126ed5fp+0, 0x1.cd7ad5f3d6fa8p+0,
               0x1.8b1ca071b7d4ap+0, 0x1.73d5b54f811p+0,   0x1.71da1b6e30a2bp+0,
               0x1.8dd6fe4c06179p+0, 0x1.0283cba59febap+1, 0x1.0194223b0cb63p+1,
               0x1.002a06f1842cbp+1, 0x1.033272b9542c1p+1, 0x1.2185e8ec38701p+1,
               0x1.1bbdb40295d44p+1, 0x1.1f47a17127637p+1, 0x1.1f57954160c83p+1,
               0x1.1f2cfe1b8e213p+1, 0x1.1de23532e204dp+1}});
}

TEST(CobylaGoldenTest, PenaltyFairSum10Jobs) {
  // 2n = 20 variables: replicas then drop rates.
  ExpectBits(SolveStandard(10, ObjectiveKind::kPenaltyFairSum),
             {316,
              -0x1.7675dab410debp-15,
              {0x1.0be17e5260a9cp+0,  0x1.040d43f1bee0ap+0,  0x1.83b0d56abb046p+0,
               0x1.7f6cbcd44f5b7p+0,  0x1.8841ff0473p+0,     0x1.90eaa5227a449p+0,
               0x1.9f8ca17554c3p+0,   0x1.96e2007986a97p+0,  0x1.a7b06fca883bp+0,
               0x1.d014e58b6827bp+0,  0x1.fd3a0e3c995f6p-5,  0x1.ae7000ca7cf64p-2,
               0x1.e9fc05af15d56p-14, 0x1.7438d247d582p-2,   0x1.c99070ce0d7d2p-2,
               0x1.031820c827fecp-1,  0x1.0f50223b5675cp-1,  0x1.3a1544b27e00bp-1,
               0x1.3aa91b2e8dc1ap-1,  0x1.061267568d85cp-1}});
}

TEST(CobylaGoldenTest, SeparableQuadraticWithBindingCapacity) {
  // Stage-2 shape with an informative objective: 10 variables in [1, 100],
  // targets 2..11 summing to 65 against a capacity of 50. The standard Faro
  // objectives above are nearly flat, so this case carries most of the
  // sensitivity to the model fit's rounding.
  const size_t n = 10;
  Problem p(n, [](std::span<const double> x) {
    double sum = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double target = 2.0 + static_cast<double>(i);
      sum += (x[i] - target) * (x[i] - target);
    }
    return sum;
  });
  p.SetBounds(std::vector<double>(n, 1.0), std::vector<double>(n, 100.0));
  p.AddConstraint([](std::span<const double> x) {
    double sum = 0.0;
    for (const double v : x) {
      sum += v;
    }
    return 50.0 - sum;
  });
  CobylaConfig config;
  config.rho_begin = 2.0;
  config.rho_end = 1e-5;
  config.max_evaluations = 20000;
  ExpectBits(Cobyla(p, std::vector<double>(n, 1.0), config),
             {248,
              0x1.6cb7bca05730bp+4,
              {0x1.00000025da4d5p+0, 0x1.70cf561e6c4p+0, 0x1.2edf76ea5cbd3p+1,
               0x1.bf168d947095dp+1, 0x1.1ab67667a1af9p+2, 0x1.5ae20bf71f19bp+2,
               0x1.9af4fc8d2de06p+2, 0x1.dc4dc5ea93363p+2, 0x1.0f6d3fdd54227p+3,
               0x1.308db1ad132aap+3}});
}

TEST(CobylaGoldenTest, InfeasibleStartRecovers) {
  // optim_test's CobylaTest.InfeasibleStartRecovers: phase 1 of the
  // subproblem runs while the linearised constraint is violated.
  Problem p(2, [](std::span<const double> x) { return x[0] + x[1]; });
  p.AddConstraint([](std::span<const double> x) {
    return 1.0 - (x[0] - 1.0) * (x[0] - 1.0) - (x[1] - 1.0) * (x[1] - 1.0);
  });
  CobylaConfig config;
  config.rho_begin = 1.0;
  config.rho_end = 1e-6;
  ExpectBits(Cobyla(p, std::vector<double>{8.0, 8.0}, config),
             {57, 0x1.2c102f01a777p-1, {0x1.1dcbf7a9ac21dp-2, 0x1.3a546659a2cc2p-2}});
}

}  // namespace
}  // namespace faro
