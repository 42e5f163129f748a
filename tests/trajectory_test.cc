#include "core/trajectory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/options.h"

namespace frechet_motif {
namespace {

TEST(TrajectoryTest, EmptyByDefault) {
  Trajectory t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
  EXPECT_FALSE(t.has_timestamps());
}

TEST(TrajectoryTest, CreateValidatesFiniteCoordinates) {
  StatusOr<Trajectory> t =
      Trajectory::Create({Point(0, 0), Point(std::nan(""), 1)});
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrajectoryTest, CreateValidatesTimestampCount) {
  StatusOr<Trajectory> t =
      Trajectory::Create({Point(0, 0), Point(1, 1)}, {1.0});
  EXPECT_FALSE(t.ok());
}

TEST(TrajectoryTest, CreateValidatesAscendingTimestamps) {
  StatusOr<Trajectory> t =
      Trajectory::Create({Point(0, 0), Point(1, 1)}, {2.0, 2.0});
  EXPECT_FALSE(t.ok());
  t = Trajectory::Create({Point(0, 0), Point(1, 1)}, {2.0, 1.0});
  EXPECT_FALSE(t.ok());
}

TEST(TrajectoryTest, CreateRejectsNonFiniteTimestamps) {
  // A non-finite timestamp is its own error, wherever it sits — not an
  // ordering violation, and not accepted on the last point.
  const std::vector<Point> points = {Point(0, 0), Point(1, 1), Point(2, 2)};
  for (const std::vector<double>& stamps :
       std::vector<std::vector<double>>{{0.0, 1.0, INFINITY},
                                        {0.0, std::nan(""), 2.0},
                                        {-INFINITY, 1.0, 2.0}}) {
    StatusOr<Trajectory> t = Trajectory::Create(points, stamps);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(t.status().message().find("non-finite timestamp"),
              std::string::npos)
        << t.status();
  }
}

TEST(TrajectoryTest, CreateAcceptsNonUniformTimestamps) {
  StatusOr<Trajectory> t = Trajectory::Create(
      {Point(0, 0), Point(1, 1), Point(2, 2)}, {0.0, 1.0, 60.0});
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t.value().has_timestamps());
  EXPECT_DOUBLE_EQ(t.value().timestamp(2), 60.0);
}

TEST(TrajectoryTest, AppendWithTimestamps) {
  Trajectory t;
  t.Append(Point(0, 0), 10.0);
  t.Append(Point(1, 1), 11.5);
  EXPECT_EQ(t.size(), 2);
  ASSERT_TRUE(t.has_timestamps());
  EXPECT_DOUBLE_EQ(t.timestamp(1), 11.5);
}

TEST(TrajectoryTest, SliceCopiesPointsAndTimestamps) {
  Trajectory t({Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3)},
               {0.0, 1.0, 2.0, 3.0});
  const Trajectory s = t.Slice(1, 2);
  ASSERT_EQ(s.size(), 2);
  EXPECT_EQ(s[0], Point(1, 1));
  EXPECT_EQ(s[1], Point(2, 2));
  ASSERT_TRUE(s.has_timestamps());
  EXPECT_DOUBLE_EQ(s.timestamp(0), 1.0);
}

TEST(TrajectoryTest, SliceSinglePoint) {
  Trajectory t({Point(0, 0), Point(5, 5)});
  const Trajectory s = t.Slice(1, 1);
  ASSERT_EQ(s.size(), 1);
  EXPECT_EQ(s[0], Point(5, 5));
}

TEST(TrajectoryTest, ConcatenateShiftsTimestamps) {
  Trajectory a({Point(0, 0), Point(1, 1)}, {0.0, 5.0});
  Trajectory b({Point(2, 2), Point(3, 3)}, {100.0, 101.0});
  a.Concatenate(b);
  ASSERT_EQ(a.size(), 4);
  ASSERT_TRUE(a.has_timestamps());
  // b's clock is rebased to start 1s after a ends; gaps inside b preserved.
  EXPECT_DOUBLE_EQ(a.timestamp(2), 6.0);
  EXPECT_DOUBLE_EQ(a.timestamp(3), 7.0);
  for (Index i = 1; i < a.size(); ++i) {
    EXPECT_GT(a.timestamp(i), a.timestamp(i - 1));
  }
}

TEST(TrajectoryTest, ConcatenateDropsTimestampsOnMixedInputs) {
  Trajectory a({Point(0, 0)}, {0.0});
  Trajectory b({Point(1, 1)});
  a.Concatenate(b);
  EXPECT_EQ(a.size(), 2);
  EXPECT_FALSE(a.has_timestamps());
}

TEST(TrajectoryTest, ConcatenateOntoEmpty) {
  Trajectory a;
  Trajectory b({Point(1, 1), Point(2, 2)}, {5.0, 6.0});
  a.Concatenate(b);
  EXPECT_EQ(a.size(), 2);
  EXPECT_TRUE(a.has_timestamps());
  EXPECT_DOUBLE_EQ(a.timestamp(0), 5.0);
}

TEST(SubtrajectoryRefTest, LengthAndEquality) {
  const SubtrajectoryRef r{3, 9};
  EXPECT_EQ(r.length(), 7);
  EXPECT_EQ(r, (SubtrajectoryRef{3, 9}));
  EXPECT_FALSE(r == (SubtrajectoryRef{3, 8}));
}

// -------------------------------------------------------- options/candidates

TEST(MotifOptionsTest, ValidateRejectsSmallXi) {
  MotifOptions o;
  o.min_length_xi = 0;
  EXPECT_FALSE(ValidateMotifInput(o, 100, 100).ok());
}

TEST(MotifOptionsTest, ValidateSingleNeedsTwoXiPlusFour) {
  MotifOptions o;
  o.min_length_xi = 3;
  EXPECT_FALSE(ValidateMotifInput(o, 9, 9).ok());
  EXPECT_TRUE(ValidateMotifInput(o, 10, 10).ok());
}

TEST(MotifOptionsTest, ValidateCrossNeedsXiPlusTwoEach) {
  MotifOptions o;
  o.min_length_xi = 3;
  o.variant = MotifVariant::kCrossTrajectory;
  EXPECT_FALSE(ValidateMotifInput(o, 4, 100).ok());
  EXPECT_FALSE(ValidateMotifInput(o, 100, 4).ok());
  EXPECT_TRUE(ValidateMotifInput(o, 5, 5).ok());
}

TEST(CandidateTest, ValidityRules) {
  MotifOptions o;
  o.min_length_xi = 2;
  // Valid: i=0, ie=3, j=4, je=7 within n=8.
  EXPECT_TRUE(IsValidCandidate({0, 3, 4, 7}, o, 8, 8));
  // Too short a first leg (ie <= i+xi).
  EXPECT_FALSE(IsValidCandidate({0, 2, 4, 7}, o, 8, 8));
  // Overlap (ie >= j).
  EXPECT_FALSE(IsValidCandidate({0, 4, 4, 7}, o, 8, 8));
  // je out of range.
  EXPECT_FALSE(IsValidCandidate({0, 3, 4, 8}, o, 8, 8));
}

TEST(CandidateTest, CrossVariantAllowsAnyOrder) {
  MotifOptions o;
  o.min_length_xi = 2;
  o.variant = MotifVariant::kCrossTrajectory;
  // ie >= j is fine across different trajectories.
  EXPECT_TRUE(IsValidCandidate({0, 5, 0, 5}, o, 8, 8));
}

TEST(MotifResultTest, AccessorsExposeRanges) {
  MotifResult r;
  r.best = {1, 5, 9, 14};
  EXPECT_EQ(r.first(), (SubtrajectoryRef{1, 5}));
  EXPECT_EQ(r.second(), (SubtrajectoryRef{9, 14}));
}

}  // namespace
}  // namespace frechet_motif
