// Tests for the multi-device server database: registration, replay
// protection, authentication routing, the private store's lifetime, and
// persistence through open/save/reopen.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "puf/database.hpp"
#include "puf/threshold_adjust.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNPufs = 3;

  DatabaseTest()
      : pop_(make_config()),
        rng_(808),
        db_(DatabaseConfig{.n_pufs = kNPufs, .policy = {.challenge_count = 16}, .pool = {}}) {
    EnrollmentConfig cfg;
    cfg.training_challenges = 2'000;
    cfg.trials = 2'000;
    for (std::size_t i = 0; i < pop_.size(); ++i) {
      ServerModel m = Enroller(cfg).enroll(pop_.chip(i), rng_);
      m.set_betas(BetaFactors{0.85, 1.15});
      db_.register_device(std::move(m));
    }
  }

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 2;
    cfg.n_pufs_per_chip = kNPufs;
    cfg.seed = 5150;
    return cfg;
  }

  static DatabaseConfig db_config(std::size_t pool_target = 0) {
    return DatabaseConfig{.n_pufs = kNPufs,
                          .policy = {.challenge_count = 16},
                          .pool = {.target = pool_target}};
  }

  /// A fresh (removed-if-present) directory path for a durable store.
  static std::string scratch_dir(const std::string& tag) {
    const auto dir = (std::filesystem::temp_directory_path() /
                      ("xpuf_db_" + tag + "_" + std::to_string(::getpid())))
                         .string();
    std::filesystem::remove_all(dir);
    return dir;
  }

  /// Registers copies of the fixture's enrolled models into `db`.
  void register_fleet(ServerDatabase& db) const {
    for (std::size_t id = 0; id < pop_.size(); ++id)
      db.register_device(ServerModel(*db_.model_snapshot(id)));
  }

  sim::ChipPopulation pop_;
  Rng rng_;
  ServerDatabase db_;
};

TEST_F(DatabaseTest, RegistryBookkeeping) {
  EXPECT_EQ(db_.device_count(), 2u);
  EXPECT_TRUE(db_.knows(0));
  EXPECT_TRUE(db_.knows(1));
  EXPECT_FALSE(db_.knows(7));
  EXPECT_THROW(db_.model_snapshot(7), std::invalid_argument);
  EXPECT_NE(db_.model_snapshot(0), nullptr);
}

// The constructor's store lives in a private directory: present while the
// database lives (a move hands it over intact, and destroying the moved-from
// object removes nothing), gone after destruction.
TEST_F(DatabaseTest, PrivateStoreDirectoryLivesExactlyAsLongAsTheDatabase) {
  namespace fs = std::filesystem;
  std::string dir;
  {
    std::optional<ServerDatabase> source(std::in_place, db_config());
    dir = source->store().dir();
    EXPECT_TRUE(fs::is_directory(dir));
    EXPECT_EQ(source->store().n_shards(), 1u);
    ServerDatabase moved(std::move(*source));
    source.reset();
    EXPECT_TRUE(fs::is_directory(dir)) << "a move removed the directory early";
    register_fleet(moved);
    EXPECT_EQ(moved.issue(0, rng_).size(), 16u);

    ServerDatabase target(db_config());
    const std::string replaced = target.store().dir();
    target = std::move(moved);
    EXPECT_FALSE(fs::exists(replaced)) << "an overwritten database leaked its directory";
    EXPECT_TRUE(fs::is_directory(dir)) << "move assignment removed the directory early";
    EXPECT_EQ(target.issued_count(0), 16u);
  }
  EXPECT_FALSE(fs::exists(dir)) << "the private store outlived its database";
}

// A private store and a durable open() store run the same code, so the same
// models and RNG streams must yield bit-identical batches, pooled or live.
TEST_F(DatabaseTest, PrivateAndDurableStoresIssueIdenticalBatches) {
  for (const std::size_t pool_target : {std::size_t{0}, std::size_t{32}}) {
    const std::string dir = scratch_dir("twin");
    {
      ServerDatabase private_db(db_config(pool_target));
      ServerDatabase durable_db = ServerDatabase::open(dir, db_config(pool_target));
      register_fleet(private_db);
      register_fleet(durable_db);
      Rng private_rng(4242);
      Rng durable_rng(4242);
      for (int round = 0; round < 6; ++round) {
        for (std::size_t id = 0; id < pop_.size(); ++id) {
          const ChallengeBatch a = private_db.issue(id, private_rng);
          const ChallengeBatch b = durable_db.issue(id, durable_rng);
          EXPECT_EQ(a.words, b.words) << "pool " << pool_target;
          EXPECT_EQ(a.expected, b.expected) << "pool " << pool_target;
          EXPECT_EQ(a.candidates_tried, b.candidates_tried) << "pool " << pool_target;
        }
      }
      EXPECT_EQ(private_db.issued_count(0), durable_db.issued_count(0));
    }
    std::filesystem::remove_all(dir);
  }
}

TEST_F(DatabaseTest, DuplicateRegistrationRejected) {
  EnrollmentConfig cfg;
  cfg.training_challenges = 500;
  cfg.trials = 1'000;
  ServerModel m = Enroller(cfg).enroll(pop_.chip(0), rng_);
  EXPECT_THROW(db_.register_device(std::move(m)), std::invalid_argument);
}

TEST_F(DatabaseTest, RevocationRemovesDevice) {
  db_.revoke_device(1);
  EXPECT_FALSE(db_.knows(1));
  EXPECT_EQ(db_.device_count(), 1u);
  EXPECT_THROW(db_.revoke_device(1), std::invalid_argument);
}

TEST_F(DatabaseTest, ReRegisteringARevokedIdStartsAFreshEntry) {
  ServerDatabase db(db_config(/*pool_target=*/32));
  register_fleet(db);
  store::PoolSlot first;
  ASSERT_TRUE(db.store().pool_slot(0, first));
  const ChallengeBatch before = db.issue(0, rng_);
  ASSERT_EQ(db.issued_count(0), 16u);

  ServerModel model(*db.model_snapshot(0));
  db.revoke_device(0);
  db.register_device(std::move(model));
  // Nothing of the revoked registration carries over: an empty ledger and
  // a first-generation pool, screened from the start of the candidate stream.
  EXPECT_EQ(db.issued_count(0), 0u);
  store::PoolSlot slot;
  ASSERT_TRUE(db.store().pool_slot(0, slot));
  EXPECT_EQ(slot.epoch, 1u);
  EXPECT_EQ(slot.head, 0u);
  EXPECT_EQ(slot.count, first.count);
  EXPECT_EQ(slot.cursor, first.cursor);
  // The candidate stream depends only on (pool seed, id), so the re-registered
  // id is issued the challenges it was issued before revocation.
  EXPECT_EQ(db.issue(0, rng_).words, before.words);
}

// GCC 12's value-range propagation mis-models std::less<vector<uint8_t>> when
// set::insert inlines memcmp in Release and reports an impossible bound
// (stringop-overread); the comparison is well-defined for any real vector.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif
TEST_F(DatabaseTest, IssueNeverRepeatsAChallenge) {
  std::set<std::vector<std::uint8_t>> seen;
  for (int round = 0; round < 6; ++round) {
    const ChallengeBatch batch = db_.issue(0, rng_);
    EXPECT_EQ(batch.size(), 16u);
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_TRUE(seen.insert(batch.challenge(i)).second) << "challenge reused across batches";
  }
  EXPECT_EQ(db_.issued_count(0), 96u);
  // Device 1's ledger is independent.
  EXPECT_EQ(db_.issued_count(1), 0u);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

TEST_F(DatabaseTest, AuthenticateRoutesByChipId) {
  const DatabaseAuthOutcome genuine =
      db_.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_);
  EXPECT_TRUE(genuine.known_device);
  EXPECT_TRUE(genuine.outcome.approved);
  EXPECT_EQ(genuine.outcome.mismatches, 0u);

  // The "wrong" physical chip claiming id 1 is chip 1's own silicon, so it
  // passes; a counterfeit would present chip 0's id but chip 1's silicon —
  // simulate by verifying chip 1's responses against chip 0's batch.
  const ChallengeBatch batch = db_.issue(0, rng_);
  std::vector<bool> responses;
  for (std::size_t i = 0; i < batch.size(); ++i)
    responses.push_back(
        pop_.chip(1).xor_response(batch.challenge(i), sim::Environment::nominal(), rng_));
  const AuthenticationOutcome fake = db_.verify(0, batch, responses);
  EXPECT_FALSE(fake.approved);
}

// Regression (ISSUE 3): DatabaseAuthOutcome::replay_rejected was never
// populated. A second authentication whose issuance RNG is re-seeded
// identically re-draws the first session's challenges; every one of them is
// ledger-filtered, must be counted, and the batch must still refill from
// fresh draws and approve.
TEST_F(DatabaseTest, ReplayedSessionRejectionsAreCounted) {
  Rng first_session(777);
  const DatabaseAuthOutcome first =
      db_.authenticate(pop_.chip(0), sim::Environment::nominal(), first_session);
  EXPECT_TRUE(first.outcome.approved);
  EXPECT_EQ(first.replay_rejected, 0u);
  EXPECT_GE(first.outcome.candidates_tried, 16u);  // selection cost surfaced
  EXPECT_EQ(db_.issued_count(0), 16u);

  Rng replayed_session(777);  // identical seed -> identical candidate stream
  const DatabaseAuthOutcome second =
      db_.authenticate(pop_.chip(0), sim::Environment::nominal(), replayed_session);
  EXPECT_TRUE(second.known_device);
  EXPECT_GE(second.replay_rejected, 16u) << "ledger-filtered candidates went uncounted";
  EXPECT_TRUE(second.outcome.approved) << "batch must refill past the replays";
  EXPECT_EQ(db_.issued_count(0), 32u);  // 16 fresh challenges joined the ledger
}

// Regression (ISSUE 3, reworked in ISSUE 8): save() once deleted stale
// device_*/ledger_* files before writing — revoke -> save over an existing
// directory could resurrect the revoked device on load, and a crash between
// delete and write lost the fleet. The store keeps the fix structurally: the
// REVOKE record is durable before revoke_device() returns, and compaction
// swaps each shard for a complete image of the surviving devices.
TEST_F(DatabaseTest, RevokeThenSaveDoesNotResurrectOnLoad) {
  const std::string dir = scratch_dir("revoke");
  {
    ServerDatabase db = ServerDatabase::open(dir, db_config());
    register_fleet(db);
    db.issue(1, rng_);  // give device 1 ledger entries too
    db.save(dir);
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/store_manifest"))
      << "the database writes the binary store layout";
  {
    ServerDatabase first = ServerDatabase::open(dir, db_config());
    EXPECT_TRUE(first.knows(1));
    EXPECT_EQ(first.issued_count(1), 16u);
    first.revoke_device(1);
    first.save(dir);  // must reconcile, not accrete
  }
  ServerDatabase loaded = ServerDatabase::open(dir, db_config());
  EXPECT_EQ(loaded.device_count(), 1u);
  EXPECT_TRUE(loaded.knows(0));
  EXPECT_FALSE(loaded.knows(1)) << "revoked device resurrected from stale records";
  std::filesystem::remove_all(dir);
}

TEST_F(DatabaseTest, SavePreservesUnrelatedFiles) {
  const std::string dir = scratch_dir("unrelated");
  std::filesystem::create_directories(dir);
  {
    std::ofstream note(dir + "/README.txt");
    note << "operator notes\n";
  }
  {
    ServerDatabase db = ServerDatabase::open(dir, db_config());
    register_fleet(db);
    db.issue(0, rng_);
    db.save(dir);
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/README.txt"))
      << "save() must only rewrite the store's own shard files";
  std::filesystem::remove_all(dir);
}

TEST_F(DatabaseTest, UnknownDeviceIsDeniedWithoutThrowing) {
  sim::PopulationConfig cfg = make_config();
  cfg.seed = 999;
  cfg.n_chips = 5;
  sim::ChipPopulation strangers(cfg);
  const DatabaseAuthOutcome out =
      db_.authenticate(strangers.chip(4), sim::Environment::nominal(), rng_);
  EXPECT_FALSE(out.known_device);
  EXPECT_FALSE(out.outcome.approved);
}

TEST_F(DatabaseTest, SaveAndLoadPreservesModelsAndLedger) {
  const std::string dir = scratch_dir("persist");
  std::size_t issued_before = 0;
  {
    ServerDatabase db = ServerDatabase::open(dir, db_config());
    register_fleet(db);
    db.issue(0, rng_);
    db.issue(0, rng_);
    issued_before = db.issued_count(0);
    db.save(dir);
  }
  ServerDatabase loaded = ServerDatabase::open(dir, db_config());
  EXPECT_EQ(loaded.device_count(), 2u);
  EXPECT_EQ(loaded.issued_count(0), issued_before);
  EXPECT_EQ(loaded.issued_count(1), 0u);
  for (std::size_t id = 0; id < pop_.size(); ++id) {
    const auto original = db_.model_snapshot(id);
    const auto survived = loaded.model_snapshot(id);
    ASSERT_EQ(survived->puf_count(), original->puf_count());
    for (std::size_t p = 0; p < original->puf_count(); ++p)
      EXPECT_EQ(survived->puf(p).model.weights().raw(),
                original->puf(p).model.weights().raw());
  }
  // The restored database still authenticates the genuine chip.
  const DatabaseAuthOutcome out =
      loaded.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_);
  EXPECT_TRUE(out.outcome.approved);
  std::filesystem::remove_all(dir);
}

// A durable database serves like a private one, and every op survives the
// object: kill it at any point and reopen.
TEST_F(DatabaseTest, BackedDatabaseAuthenticatesAndSurvivesReopen) {
  const std::string dir = scratch_dir("backed");
  const DatabaseConfig cfg = db_config();
  store::StoreOptions opts;
  opts.n_shards = 2;
  opts.cache_capacity = 1;  // harsher than any deployment would pick
  EnrollmentConfig ecfg;
  ecfg.training_challenges = 2'000;
  ecfg.trials = 2'000;
  {
    ServerDatabase db = ServerDatabase::open(dir, cfg, opts);
    for (std::size_t i = 0; i < pop_.size(); ++i) {
      ServerModel m = Enroller(ecfg).enroll(pop_.chip(i), rng_);
      m.set_betas(BetaFactors{0.85, 1.15});
      db.register_device(std::move(m));
    }
    const DatabaseAuthOutcome out =
        db.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_);
    EXPECT_TRUE(out.outcome.approved);
    EXPECT_EQ(db.issued_count(0), 16u);
    EXPECT_EQ(db.store().cache_size(), 1u);
  }  // no save(): durability came from the op log itself
  ServerDatabase reopened = ServerDatabase::open(dir, cfg, opts);
  EXPECT_EQ(reopened.device_count(), 2u);
  EXPECT_EQ(reopened.issued_count(0), 16u);
  EXPECT_NE(reopened.model_snapshot(0), nullptr);
  const DatabaseAuthOutcome out =
      reopened.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_);
  EXPECT_TRUE(out.outcome.approved);
  std::filesystem::remove_all(dir);
}

TEST_F(DatabaseTest, OpenRejectsAnUncreatableDirectory) {
  const std::string file = scratch_dir("not_a_dir");
  { std::ofstream(file) << "a regular file\n"; }
  EXPECT_THROW(ServerDatabase::open(file + "/db", db_config()),
               std::filesystem::filesystem_error);
  std::filesystem::remove(file);
}

TEST_F(DatabaseTest, WidthMismatchRejectedAtRegistration) {
  sim::PopulationConfig cfg = make_config();
  cfg.seed = 31;
  cfg.n_pufs_per_chip = 2;  // narrower than the database width of 3
  sim::ChipPopulation narrow(cfg);
  EnrollmentConfig ecfg;
  ecfg.training_challenges = 300;
  ecfg.trials = 500;
  ServerModel m = Enroller(ecfg).enroll(narrow.chip(0), rng_);
  EXPECT_THROW(db_.register_device(std::move(m)), std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::puf
