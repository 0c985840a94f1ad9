#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/lambda.h"

namespace complx {
namespace {

TEST(Lambda, Formula12InitIsPhiOver100Pi) {
  LambdaSchedule s(ScheduleKind::ComplxFormula12);
  s.init(/*phi=*/500.0, /*pi=*/10.0);
  EXPECT_DOUBLE_EQ(s.lambda(), 500.0 / (100.0 * 10.0));
}

TEST(Lambda, Formula12GrowthCappedAtDoubling) {
  LambdaSchedule s(ScheduleKind::ComplxFormula12, /*h_factor=*/1000.0);
  s.init(100.0, 1.0);
  const double l1 = s.lambda();
  s.update(/*pi_prev=*/1.0, /*pi_cur=*/1.0);  // huge h would exceed 2x
  EXPECT_DOUBLE_EQ(s.lambda(), 2.0 * l1);
}

TEST(Lambda, Formula12ProportionalToPiRatio) {
  LambdaSchedule s(ScheduleKind::ComplxFormula12, /*h_factor=*/0.5);
  s.init(100.0, 1.0);  // lambda1 = 1, h = 0.5
  const double l1 = s.lambda();
  s.update(/*pi_prev=*/4.0, /*pi_cur=*/1.0);  // ratio 0.25 -> +0.125
  EXPECT_NEAR(s.lambda(), l1 + 0.25 * 0.5 * l1, 1e-12);
}

TEST(Lambda, Formula12MonotoneNonDecreasing) {
  LambdaSchedule s(ScheduleKind::ComplxFormula12);
  s.init(1000.0, 3.0);
  double prev = s.lambda();
  double pi = 3.0;
  for (int k = 0; k < 50; ++k) {
    const double pi_next = pi * 0.9;
    s.update(pi, pi_next);
    pi = pi_next;
    EXPECT_GE(s.lambda(), prev);
    prev = s.lambda();
  }
}

TEST(Lambda, Formula12ZeroPiFallback) {
  LambdaSchedule s(ScheduleKind::ComplxFormula12);
  s.init(100.0, 0.0);
  EXPECT_GT(s.lambda(), 0.0);
  EXPECT_LT(s.lambda(), 1.0);
}

TEST(Lambda, SimplRampIsLinear) {
  LambdaSchedule s(ScheduleKind::SimplLinearRamp);
  s.init(12345.0, 99.0);  // phi/pi irrelevant for SimPL
  EXPECT_DOUBLE_EQ(s.lambda(), 0.01);
  s.update(1, 1);
  EXPECT_DOUBLE_EQ(s.lambda(), 0.01 * 3.0);  // iteration counter = 2
  s.update(1, 1);
  EXPECT_DOUBLE_EQ(s.lambda(), 0.01 * 4.0);
}

TEST(Lambda, NaiveDoublingDoubles) {
  LambdaSchedule s(ScheduleKind::NaiveDoubling);
  s.init(100.0, 1.0);
  const double l1 = s.lambda();
  s.update(1, 1);
  EXPECT_DOUBLE_EQ(s.lambda(), 2 * l1);
  s.update(1, 1);
  EXPECT_DOUBLE_EQ(s.lambda(), 4 * l1);
}

TEST(Lambda, NaiveDoublingClampsAtFiniteCeiling) {
  LambdaSchedule s(ScheduleKind::NaiveDoubling);
  s.init(100.0, 1.0);
  // 2000 doublings would overflow to Inf without the ceiling.
  for (int k = 0; k < 2000; ++k) s.update(1, 1);
  EXPECT_TRUE(std::isfinite(s.lambda()));
  EXPECT_DOUBLE_EQ(s.lambda(), kMaxLambda);
  // Further updates stay pinned at the ceiling.
  s.update(1, 1);
  EXPECT_DOUBLE_EQ(s.lambda(), kMaxLambda);
}

TEST(Lambda, InitGuardsNonFiniteInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto kind :
       {ScheduleKind::ComplxFormula12, ScheduleKind::NaiveDoubling}) {
    LambdaSchedule s(kind);
    s.init(nan, 10.0);
    EXPECT_TRUE(std::isfinite(s.lambda())) << static_cast<int>(kind);
    EXPECT_GT(s.lambda(), 0.0);
    s.init(100.0, inf);
    EXPECT_TRUE(std::isfinite(s.lambda()));
    EXPECT_GT(s.lambda(), 0.0);
  }
}

TEST(Lambda, UpdateGuardsNonFinitePenalties) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  LambdaSchedule s(ScheduleKind::ComplxFormula12);
  s.init(100.0, 1.0);
  const double l1 = s.lambda();
  s.update(nan, 1.0);  // ratio falls back to the neutral step
  EXPECT_TRUE(std::isfinite(s.lambda()));
  EXPECT_GE(s.lambda(), l1);
  s.update(1.0, inf);
  EXPECT_TRUE(std::isfinite(s.lambda()));
}

TEST(Lambda, SetLambdaSanitizesAndClamps) {
  LambdaSchedule s(ScheduleKind::ComplxFormula12);
  s.init(100.0, 1.0);
  s.set_lambda(42.0);
  EXPECT_DOUBLE_EQ(s.lambda(), 42.0);
  s.set_lambda(-5.0);  // negative multipliers are meaningless
  EXPECT_DOUBLE_EQ(s.lambda(), 0.0);
  s.set_lambda(std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(s.lambda(), kMaxLambda);
  s.set_lambda(2.0 * kMaxLambda);
  EXPECT_DOUBLE_EQ(s.lambda(), kMaxLambda);
}

TEST(Lambda, IterationCounterAdvances) {
  LambdaSchedule s(ScheduleKind::ComplxFormula12);
  s.init(10, 1);
  EXPECT_EQ(s.iteration(), 1);
  s.update(1, 1);
  s.update(1, 1);
  EXPECT_EQ(s.iteration(), 3);
}

}  // namespace
}  // namespace complx
