// Tests for the one-time-programmable fuse bank.
#include <gtest/gtest.h>

#include "sim/fuse.hpp"

namespace xpuf::sim {
namespace {

TEST(FuseBank, StartsIntact) {
  const FuseBank bank(4);
  EXPECT_EQ(bank.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(bank.intact(i));
  EXPECT_FALSE(bank.all_blown());
}

TEST(FuseBank, BlowIsIrreversibleAndIdempotent) {
  FuseBank bank(3);
  bank.blow_all();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FALSE(bank.intact(i));
  bank.blow_all();  // no-op
  EXPECT_TRUE(bank.all_blown());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FALSE(bank.intact(i));
}

TEST(FuseBank, BlowAllDeploys) {
  FuseBank bank(5);
  bank.blow_all();
  EXPECT_TRUE(bank.all_blown());
}

TEST(FuseBank, IndexIsValidated) {
  FuseBank bank(2);
  EXPECT_THROW(bank.intact(2), std::invalid_argument);
}

TEST(FuseBank, EmptyBankIsTriviallyBlown) {
  const FuseBank bank(0);
  EXPECT_TRUE(bank.all_blown());
}

}  // namespace
}  // namespace xpuf::sim
