// Tests for the analytic arbiter/XOR PUF models.
#include <gtest/gtest.h>

#include "puf/model.hpp"

namespace xpuf::puf {
namespace {

TEST(ArbiterPufModel, EmptyModelRejectsPrediction) {
  const ArbiterPufModel model;
  EXPECT_TRUE(model.empty());
  EXPECT_THROW(model.predict_raw(Challenge{0, 1}), std::invalid_argument);
}

TEST(ArbiterPufModel, PredictRawMatchesExplicitDotProduct) {
  Rng rng(1);
  linalg::Vector w(17);
  for (auto& v : w) v = rng.normal();
  const ArbiterPufModel model(w);
  EXPECT_EQ(model.stages(), 16u);
  for (int i = 0; i < 50; ++i) {
    const auto c = random_challenge(16, rng);
    const linalg::Vector phi = feature_vector(c);
    EXPECT_NEAR(model.predict_raw(c), linalg::dot(w, phi), 1e-12);
    EXPECT_NEAR(model.predict_raw(phi.span()), linalg::dot(w, phi), 1e-12);
  }
}

TEST(ArbiterPufModel, ChallengeLengthValidated) {
  const ArbiterPufModel model(linalg::Vector(9));
  EXPECT_THROW(model.predict_raw(Challenge(9, 0)), std::invalid_argument);
  const linalg::Vector phi(7);
  EXPECT_THROW(model.predict_raw(phi.span()), std::invalid_argument);
}

TEST(ArbiterPufModel, HardDecisionCentersAtHalf) {
  // Soft-response-space model: predictions above 0.5 mean response '1'.
  linalg::Vector w(3);
  w[2] = 0.6;  // constant term only: every prediction is 0.6
  const ArbiterPufModel model(w);
  EXPECT_TRUE(model.predict_response(Challenge{0, 0}));
  w[2] = 0.4;
  const ArbiterPufModel model2(w);
  EXPECT_FALSE(model2.predict_response(Challenge{0, 0}));
}

TEST(XorPufModel, EmptyModelRejectsPrediction) {
  const XorPufModel model;
  EXPECT_EQ(model.puf_count(), 0u);
  EXPECT_THROW(model.predict_response(Challenge{0}), std::invalid_argument);
}

TEST(XorPufModel, XorOfPredictionsIsRespected) {
  Rng rng(4);
  std::vector<ArbiterPufModel> pufs;
  for (int p = 0; p < 3; ++p) {
    linalg::Vector w(9);
    for (auto& v : w) v = rng.normal();
    w[8] += 0.5;  // recenter to soft-response space
    pufs.emplace_back(w);
  }
  const XorPufModel model(pufs);
  EXPECT_EQ(model.puf_count(), 3u);
  for (int i = 0; i < 50; ++i) {
    const auto c = random_challenge(8, rng);
    bool expected = false;
    for (const auto& p : pufs) expected ^= p.predict_response(c);
    EXPECT_EQ(model.predict_response(c), expected);
  }
}

TEST(XorPufModel, PufAccessorValidates) {
  std::vector<ArbiterPufModel> pufs{ArbiterPufModel(linalg::Vector(5))};
  const XorPufModel model(pufs);
  EXPECT_NO_THROW(model.puf(0));
  EXPECT_THROW(model.puf(1), std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::puf
