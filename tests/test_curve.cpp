#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "map/curve.hpp"
#include "util/rng.hpp"

namespace minpower {
namespace {

CurvePoint pt(double t, double c, double drive = 0.0) {
  CurvePoint p;
  p.arrival = t;
  p.cost = c;
  p.drive = drive;
  return p;
}

TEST(Curve, InsertKeepsNonInferior) {
  Curve c;
  c.insert(pt(1.0, 10.0));
  c.insert(pt(2.0, 5.0));
  c.insert(pt(3.0, 1.0));
  EXPECT_EQ(c.size(), 3u);
  // Sorted by arrival, cost decreasing (Lemma 3.1).
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_LT(c[i - 1].arrival, c[i].arrival);
    EXPECT_GT(c[i - 1].cost, c[i].cost);
  }
}

TEST(Curve, InsertDropsInferior) {
  Curve c;
  c.insert(pt(1.0, 10.0));
  c.insert(pt(2.0, 12.0));  // slower AND costlier → dropped
  EXPECT_EQ(c.size(), 1u);
  c.insert(pt(0.5, 20.0));  // faster but costlier → kept
  EXPECT_EQ(c.size(), 2u);
}

TEST(Curve, InsertDominatesExisting) {
  Curve c;
  c.insert(pt(2.0, 10.0));
  c.insert(pt(3.0, 8.0));
  c.insert(pt(1.0, 7.0));  // dominates both
  EXPECT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c[0].arrival, 1.0);
}

TEST(Curve, EqualArrivalKeepsCheaper) {
  Curve c;
  c.insert(pt(1.0, 10.0));
  c.insert(pt(1.0, 5.0));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c[0].cost, 5.0);
  c.insert(pt(1.0, 8.0));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c[0].cost, 5.0);
}

TEST(Curve, PruneKeepsEndpoints) {
  Curve c;
  for (int i = 0; i < 10; ++i)
    c.insert(pt(1.0 + 0.001 * i, 10.0 - i));
  // All interior points are within 0.5 in time AND save less than 20 in
  // cost relative to the fastest point — everything in between is pruned.
  c.prune(0.5, 20.0);
  EXPECT_EQ(c.size(), 2u);  // only the fastest and the cheapest survive
  EXPECT_DOUBLE_EQ(c[0].arrival, 1.0);
  EXPECT_DOUBLE_EQ(c[c.size() - 1].cost, 1.0);
}

TEST(Curve, PruneEpsilonZeroKeepsAll) {
  Curve c;
  for (int i = 0; i < 6; ++i) c.insert(pt(i, 10.0 - i));
  const std::size_t before = c.size();
  c.prune(0.0, 0.0);
  EXPECT_EQ(c.size(), before);
}

TEST(Curve, PruneKeepsLargeCostSavingPoint) {
  // A point that is barely slower but MUCH cheaper must survive: both
  // epsilon conditions are required before dropping (dropping on the time
  // condition alone would forfeit a 90-unit cost saving).
  Curve c;
  c.insert(pt(1.0, 100.0));
  c.insert(pt(1.001, 10.0));  // barely slower, saves 90
  c.insert(pt(1.002, 9.5));   // barely slower, saves only 0.5
  c.insert(pt(2.0, 9.0));
  c.insert(pt(3.0, 1.0));
  c.prune(0.5, 5.0);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c[0].cost, 100.0);
  EXPECT_DOUBLE_EQ(c[1].cost, 10.0);  // the big saver survived
  EXPECT_DOUBLE_EQ(c[2].cost, 9.0);   // the 0.5-saver was pruned
  EXPECT_DOUBLE_EQ(c[3].cost, 1.0);
}

TEST(Curve, BestWithin) {
  Curve c;
  c.insert(pt(1.0, 10.0));
  c.insert(pt(2.0, 5.0));
  c.insert(pt(3.0, 1.0));
  EXPECT_EQ(c.best_within(10.0), 2);  // cheapest overall
  EXPECT_EQ(c.best_within(2.5), 1);
  EXPECT_EQ(c.best_within(1.0), 0);
  EXPECT_EQ(c.best_within(0.5), -1);  // infeasible
}

TEST(Curve, DownsampleKeepsEndpointsAndBound) {
  Curve c;
  for (int i = 0; i < 100; ++i)
    c.insert(pt(static_cast<double>(i), 100.0 - i));
  ASSERT_EQ(c.size(), 100u);

  c.downsample(8);
  ASSERT_LE(c.size(), 8u);
  ASSERT_GE(c.size(), 2u);
  // Endpoints survive: the fastest and the cheapest solutions must remain
  // reachable after thinning.
  EXPECT_DOUBLE_EQ(c[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(c[c.size() - 1].arrival, 99.0);
  // Still a strictly monotone staircase.
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_LT(c[i - 1].arrival, c[i].arrival);
    EXPECT_GT(c[i - 1].cost, c[i].cost);
  }
}

TEST(Curve, DownsampleIsIdempotentAndNoOpWhenSmall) {
  Curve c;
  for (int i = 0; i < 5; ++i) c.insert(pt(static_cast<double>(i), 10.0 - i));
  c.downsample(8);  // already under the cap
  EXPECT_EQ(c.size(), 5u);
  c.downsample(0);  // 0/1 = no cap (a 1-point "curve" is meaningless)
  c.downsample(1);
  EXPECT_EQ(c.size(), 5u);
  c.downsample(3);
  const std::size_t once = c.size();
  EXPECT_LE(once, 3u);
  c.downsample(3);  // applying the same cap again changes nothing
  EXPECT_EQ(c.size(), once);
}

TEST(Curve, BestWithinAppliesLoadShift) {
  Curve c;
  c.insert(pt(1.0, 10.0, /*drive=*/2.0));
  c.insert(pt(2.0, 5.0, /*drive=*/0.1));
  // With +1 load unit, the first point shifts to 3.0 and the second to 2.1.
  EXPECT_EQ(c.best_within(2.5, 1.0), 1);
  EXPECT_EQ(c.best_within(2.05, 1.0), -1);
  // Negative shift (lighter than default) speeds points up.
  EXPECT_EQ(c.best_within(0.9, -0.2), 0);
}

TEST(Curve, FastestAndCheapest) {
  Curve c;
  c.insert(pt(1.0, 10.0));
  c.insert(pt(4.0, 2.0));
  EXPECT_EQ(c.fastest(), 0);
  EXPECT_EQ(c.cheapest(), 1);
  Curve empty;
  EXPECT_EQ(empty.fastest(), -1);
  EXPECT_EQ(empty.cheapest(), -1);
}

// Property: after arbitrary random inserts the curve is a strictly
// monotone staircase (Lemma 3.1) and contains the true minimum cost.
class CurveProperty : public ::testing::TestWithParam<int> {};

TEST_P(CurveProperty, StaircaseInvariant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 1);
  Curve c;
  double min_cost = 1e9;
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 10.0);
    const double cost = rng.uniform(0.0, 100.0);
    min_cost = std::min(min_cost, cost);
    c.insert(pt(t, cost));
  }
  ASSERT_FALSE(c.empty());
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_LT(c[i - 1].arrival, c[i].arrival);
    EXPECT_GT(c[i - 1].cost, c[i].cost);
  }
  EXPECT_DOUBLE_EQ(c[c.size() - 1].cost, min_cost);
}

INSTANTIATE_TEST_SUITE_P(Random, CurveProperty, ::testing::Range(0, 20));

// A one-step merge admits exactly the points insert keeps, including ties
// and equal-arrival replacements.
TEST_P(CurveProperty, AdmissibleAgreesWithInsert) {
  Rng rng(0xadd1e + static_cast<std::uint64_t>(GetParam()));
  Curve inserted;
  Curve merged;
  std::vector<CurvePoint> scratch;
  for (int i = 0; i < 200; ++i) {
    // A coarse grid makes exact arrival and cost ties common.
    const double t = static_cast<double>(rng.range(0, 40)) / 4.0;
    const double cost = static_cast<double>(rng.range(0, 40)) / 4.0;
    inserted.insert(pt(t, cost));
    merged.merge({{t, cost}}, scratch, [](std::size_t, CurvePoint&) {});
    ASSERT_EQ(merged.size(), inserted.size()) << "t=" << t << " cost=" << cost;
    for (std::size_t k = 0; k < merged.size(); ++k) {
      EXPECT_EQ(merged[k].arrival, inserted[k].arrival);
      EXPECT_EQ(merged[k].cost, inserted[k].cost);
    }
  }
}

// Realization tags, so a test can tell which copy of a tied point survived:
// the drive encodes both the match and the step index (index < 16 keeps
// index / 64 below the 0.25 spacing of matches).
CurvePoint tagged(double t, double c, int match, int index) {
  CurvePoint p = pt(t, c, 0.25 * match + index / 64.0);
  p.match = match;
  return p;
}

// Property: merging a random staircase gives the same curve, point by point
// and realization by realization, as inserting its steps one at a time.
TEST_P(CurveProperty, MergeMatchesSequentialInsert) {
  Rng rng(0x3e46e + static_cast<std::uint64_t>(GetParam()));
  Curve curve;
  std::vector<CurvePoint> scratch;
  for (int match = 0; match < 30; ++match) {
    // Steps on a coarse grid: arrival strictly up, cost strictly down, and
    // many exact ties with points already on the curve.
    std::vector<Curve::Step> steps;
    const int n = static_cast<int>(rng.range(0, 8));
    double t = static_cast<double>(rng.range(0, 6));
    double c = static_cast<double>(rng.range(8, 24));
    for (int j = 0; j < n && c >= 0.0; ++j) {
      steps.push_back({t, c});
      t += static_cast<double>(rng.range(1, 4));
      c -= static_cast<double>(rng.range(1, 4));
    }
    Curve expected = curve;
    for (std::size_t j = 0; j < steps.size(); ++j)
      expected.insert(tagged(steps[j].arrival, steps[j].cost, match,
                             static_cast<int>(j)));
    curve.merge(steps, scratch, [&](std::size_t j, CurvePoint& p) {
      const CurvePoint want = tagged(p.arrival, p.cost, match,
                                     static_cast<int>(j));
      p.match = want.match;
      p.drive = want.drive;
    });
    ASSERT_EQ(curve.size(), expected.size()) << "match " << match;
    for (std::size_t k = 0; k < curve.size(); ++k) {
      EXPECT_EQ(curve[k].arrival, expected[k].arrival);
      EXPECT_EQ(curve[k].cost, expected[k].cost);
      EXPECT_EQ(curve[k].match, expected[k].match);
      EXPECT_EQ(curve[k].drive, expected[k].drive);
    }
  }
}

// Merging leaves the curve's points faster than the first step in place,
// in the curve's own buffer, and merges only the rest. Oracle: inserting
// the curve's points and the steps one by one in match order, a curve
// point first on an equal match, since insert keeps the first of an exact
// (arrival, cost) tie and merge gives such a tie to the lower match.
TEST(Curve, MergeLeavesFasterPrefixInPlace) {
  struct Case {
    const char* name;
    std::vector<Curve::Step> steps;
  };
  const std::vector<Case> cases = {
      {"before every point", {{0.5, 12.0, 1}, {3.0, 6.0, 1}, {7.0, 1.0, 1}}},
      {"tying a point, lower match", {{4.0, 5.0, 1}, {5.0, 4.0, 1}}},
      {"tying a point, higher match", {{4.0, 5.0, 7}, {5.0, 4.0, 7}}},
      {"at a point's arrival, cheaper", {{2.0, 7.0, 1}, {6.0, 2.0, 1}}},
      {"at a point's arrival, dearer", {{4.0, 6.0, 1}, {7.0, 2.0, 1}}},
      {"after the last point", {{7.0, 2.0, 1}, {8.0, 1.0, 1}}},
      {"after the last point, dominated", {{7.0, 3.0, 1}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // Four points, match 3, in a buffer with spare capacity: the last
    // insert drops two of the five before it.
    Curve curve;
    const double start[][2] = {{1, 10}, {2, 8}, {3, 7}, {4, 5}, {6, 3}, {2, 6.9}};
    for (int i = 0; i < 6; ++i)
      curve.insert(tagged(start[i][0], start[i][1], 3, i));
    ASSERT_EQ(curve.size(), 4u);

    std::vector<CurvePoint> by_match = curve.points();
    for (std::size_t j = 0; j < c.steps.size(); ++j)
      by_match.push_back(tagged(c.steps[j].arrival, c.steps[j].cost,
                                c.steps[j].match, static_cast<int>(j)));
    std::stable_sort(by_match.begin(), by_match.end(),
                     [](const CurvePoint& a, const CurvePoint& b) {
                       return a.match < b.match;
                     });
    Curve expected;
    for (const CurvePoint& p : by_match) expected.insert(p);

    std::size_t head = 0;
    while (head < curve.size() &&
           curve[head].arrival < c.steps.front().arrival)
      ++head;
    const std::vector<CurvePoint> prefix(curve.points().begin(),
                                         curve.points().begin() + head);
    const CurvePoint* buffer = curve.points().data();
    const std::size_t capacity = curve.points().capacity();

    std::vector<CurvePoint> scratch;
    curve.merge(c.steps, scratch, [&](std::size_t j, CurvePoint& p) {
      const CurvePoint want = tagged(p.arrival, p.cost, c.steps[j].match,
                                     static_cast<int>(j));
      p.match = want.match;
      p.drive = want.drive;
    });
    ASSERT_EQ(curve.size(), expected.size());
    for (std::size_t k = 0; k < curve.size(); ++k) {
      EXPECT_EQ(curve[k].arrival, expected[k].arrival) << "point " << k;
      EXPECT_EQ(curve[k].cost, expected[k].cost) << "point " << k;
      EXPECT_EQ(curve[k].match, expected[k].match) << "point " << k;
      EXPECT_EQ(curve[k].drive, expected[k].drive) << "point " << k;
    }
    for (std::size_t k = 0; k < head; ++k) {
      EXPECT_EQ(curve[k].arrival, prefix[k].arrival);
      EXPECT_EQ(curve[k].drive, prefix[k].drive);
    }
    // A result that fits keeps the curve's own buffer.
    if (curve.size() <= capacity) {
      EXPECT_EQ(curve.points().data(), buffer);
    }
  }
}

}  // namespace
}  // namespace minpower
