// Unit and property tests for the Kiefer-Wolfowitz optimizer, including
// convergence on synthetic noisy quasi-concave objectives (the regularity
// conditions of Section III.B).
#include "core/kiefer_wolfowitz.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "util/rng.hpp"

namespace {

using wlan::core::KieferWolfowitz;
using wlan::core::KwOptions;
using wlan::util::Rng;

KwOptions linear_opts() {
  KwOptions o;
  o.initial = 0.5;
  o.probe_min = 0.0;
  o.probe_max = 1.0;
  o.value_min = 0.0;
  o.value_max = 1.0;
  return o;
}

TEST(KieferWolfowitz, StepSequences) {
  KieferWolfowitz kw(linear_opts());
  EXPECT_EQ(kw.k(), 2);
  EXPECT_DOUBLE_EQ(kw.a_k(), 0.5);
  EXPECT_NEAR(kw.b_k(), std::pow(2.0, -1.0 / 3.0), 1e-12);
}

TEST(KieferWolfowitz, ProbeAlternatesPlusMinus) {
  KieferWolfowitz kw(linear_opts());
  EXPECT_TRUE(kw.plus_phase());
  const double plus = kw.probe();
  EXPECT_GT(plus, kw.estimate());
  kw.report(1.0);
  EXPECT_FALSE(kw.plus_phase());
  EXPECT_LT(kw.probe(), 0.5);
  kw.report(1.0);  // equal measurements: zero gradient
  EXPECT_TRUE(kw.plus_phase());
  EXPECT_DOUBLE_EQ(kw.estimate(), 0.5);
  EXPECT_EQ(kw.k(), 3);
  EXPECT_EQ(kw.iterations(), 1);
}

TEST(KieferWolfowitz, GradientStepDirection) {
  KieferWolfowitz kw(linear_opts());
  kw.report(2.0);  // S(x + b) larger...
  kw.report(1.0);  // ...than S(x - b): move right
  EXPECT_GT(kw.estimate(), 0.5);
  EXPECT_NEAR(kw.last_gradient(), 1.0 / std::pow(2.0, -1.0 / 3.0), 1e-12);

  KieferWolfowitz kw2(linear_opts());
  kw2.report(1.0);
  kw2.report(2.0);  // move left
  EXPECT_LT(kw2.estimate(), 0.5);
}

TEST(KieferWolfowitz, ProbesClampedToRange) {
  KwOptions o = linear_opts();
  o.probe_max = 0.9;  // Algorithm 1 line 13
  KieferWolfowitz kw(o);
  // b_2 = 0.79: 0.5 + 0.79 clamps to 0.9; 0.5 - 0.79 clamps to 0.
  EXPECT_DOUBLE_EQ(kw.probe(), 0.9);
  kw.report(0.0);
  EXPECT_DOUBLE_EQ(kw.probe(), 0.0);
}

TEST(KieferWolfowitz, ValueClamped) {
  KieferWolfowitz kw(linear_opts());
  kw.report(1000.0);
  kw.report(0.0);  // enormous positive gradient
  EXPECT_DOUBLE_EQ(kw.estimate(), 1.0);
  kw.report(0.0);
  kw.report(1000.0);  // enormous negative gradient
  kw.report(0.0);
  kw.report(1000.0);
  EXPECT_DOUBLE_EQ(kw.estimate(), 0.0);
}

TEST(KieferWolfowitz, ResetValueKeepsK) {
  KieferWolfowitz kw(linear_opts());
  kw.report(1.0);
  kw.report(0.0);
  EXPECT_EQ(kw.k(), 3);
  kw.reset_value(0.5);
  EXPECT_DOUBLE_EQ(kw.estimate(), 0.5);
  EXPECT_EQ(kw.k(), 3);
  EXPECT_TRUE(kw.plus_phase());
}

TEST(KieferWolfowitz, ResetAllRestartsSequences) {
  KieferWolfowitz kw(linear_opts());
  for (int i = 0; i < 6; ++i) kw.report(1.0);
  kw.reset_all(0.5);
  EXPECT_EQ(kw.k(), 2);
  EXPECT_EQ(kw.iterations(), 0);
}

TEST(KieferWolfowitz, Validation) {
  KwOptions o = linear_opts();
  o.initial_k = 0;
  EXPECT_THROW(KieferWolfowitz{o}, std::invalid_argument);
  o = linear_opts();
  o.probe_min = 0.8;
  o.probe_max = 0.2;
  EXPECT_THROW(KieferWolfowitz{o}, std::invalid_argument);
  o = linear_opts();
  o.b_exponent = 0.7;  // violates sum (a_k/b_k)^2 < inf
  EXPECT_THROW(KieferWolfowitz{o}, std::invalid_argument);
  o = linear_opts();
  o.log_space = true;
  o.value_min = 0.0;  // log of 0
  EXPECT_THROW(KieferWolfowitz{o}, std::invalid_argument);
}

TEST(KieferWolfowitz, LogSpaceProbesAreMultiplicative) {
  KwOptions o;
  o.initial = 0.01;
  o.probe_min = 1e-5;
  o.probe_max = 1.0;
  o.value_min = 1e-5;
  o.value_max = 1.0;
  o.log_space = true;
  KieferWolfowitz kw(o);
  EXPECT_NEAR(kw.probe(), 0.01 * std::exp(kw.b_k()), 1e-9);
  kw.report(1.0);
  EXPECT_NEAR(kw.probe(), 0.01 * std::exp(-kw.b_k()), 1e-9);
  EXPECT_NEAR(kw.estimate(), 0.01, 1e-12);
}

// ---------------------------------------------------------------------------
// Convergence properties on synthetic objectives. Each case defines a
// quasi-concave S(x) with optimum x*; KW must approach x* under noise.

struct SyntheticCase {
  const char* name;
  double optimum;
  double (*fn)(double);
  bool log_space;
};

// gtest prints test parameters into the test names; without this it would
// print the raw bytes, including the function pointer's address.
void PrintTo(const SyntheticCase& c, std::ostream* os) { *os << c.name; }

double quadratic(double x) { return 10.0 - 100.0 * (x - 0.3) * (x - 0.3); }
double asymmetric(double x) {
  // Steep rise, slow fall, peak at 0.6 (quasi-concave, not symmetric).
  return x < 0.6 ? 20.0 * x / 0.6 : 20.0 * (1.0 - (x - 0.6));
}
double bell_like(double x) {
  // Shaped like the paper's throughput-vs-p curves: sharp peak near 0.05.
  return 25.0 * x / 0.05 * std::exp(1.0 - x / 0.05) / std::exp(0.0);
}

class KwConvergence
    : public ::testing::TestWithParam<std::tuple<SyntheticCase, int>> {};

TEST_P(KwConvergence, ApproachesOptimumUnderNoise) {
  const auto& [c, seed] = GetParam();
  KwOptions o;
  o.initial = c.log_space ? 0.5 : 0.5;
  o.probe_min = c.log_space ? 1e-4 : 0.0;
  o.probe_max = 1.0;
  o.value_min = c.log_space ? 1e-4 : 0.0;
  o.value_max = 1.0;
  o.log_space = c.log_space;
  KieferWolfowitz kw(o);
  Rng rng(static_cast<std::uint64_t>(seed));
  for (int i = 0; i < 4000; ++i) {
    const double y = c.fn(kw.probe()) + rng.normal(0.0, 0.5);
    kw.report(y);
  }
  // Within 25% (relative) or 0.05 (absolute) of the optimum.
  const double err = std::abs(kw.estimate() - c.optimum);
  EXPECT_LT(err, std::max(0.05, 0.25 * c.optimum))
      << c.name << " seed=" << seed << " estimate=" << kw.estimate();
}

INSTANTIATE_TEST_SUITE_P(
    Objectives, KwConvergence,
    ::testing::Combine(
        ::testing::Values(SyntheticCase{"quadratic", 0.3, quadratic, false},
                          SyntheticCase{"asymmetric", 0.6, asymmetric, false},
                          SyntheticCase{"bell_log", 0.05, bell_like, true}),
        ::testing::Values(1, 2, 3, 4, 5)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(KieferWolfowitz, NoiseFreeConvergesTightly) {
  KwOptions o = linear_opts();
  KieferWolfowitz kw(o);
  for (int i = 0; i < 2000; ++i) kw.report(quadratic(kw.probe()));
  EXPECT_NEAR(kw.estimate(), 0.3, 0.02);
}

}  // namespace
