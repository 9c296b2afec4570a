// Golden pin of server-side issuance: every issued row, expected bit and
// accounting field, and every non-REGISTER store record after compaction,
// hashed over stages {32, 64, 100} x XOR widths {2, 10}. The constants were
// recorded from the string-keyed implementation this packed-row one
// replaced (hashing each challenge as the same canonical packed words), so
// the change of representation is pinned bit for bit: pooled drains across
// several refills, live issuance, a re-seeded live walk that meets its own
// earlier rows, and a reopen whose re-drain the durable ledger rejects.
// REGISTER records are left out: they carry a wall-clock fit time.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "puf/database.hpp"
#include "puf/store/record.hpp"

namespace xpuf::puf {
namespace {

namespace fs = std::filesystem;

void mix(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
}

/// Gaussian weights around a 0.5 bias with a narrow unstable band, so
/// acceptance stays workable at n = 10.
ServerModel make_model(std::uint64_t id, std::size_t stages, std::size_t n_pufs) {
  Rng rng(0x5eed0000ULL + id * 131 + stages * 7 + n_pufs);
  const double scale = 0.5 / std::sqrt(static_cast<double>(stages + 1));
  std::vector<PufEnrollment> pufs;
  for (std::size_t p = 0; p < n_pufs; ++p) {
    PufEnrollment e;
    linalg::Vector w(stages + 1);
    for (std::size_t i = 0; i < stages; ++i) w[i] = scale * rng.normal();
    w[stages] = 0.5 + 0.01 * rng.normal();
    e.model = ArbiterPufModel(std::move(w));
    e.thresholds.thr0 = 0.45;
    e.thresholds.thr1 = 0.55;
    e.train_r_squared = 0.99;
    e.fit_time_ms = 1.0;
    pufs.push_back(std::move(e));
  }
  ServerModel m(static_cast<std::size_t>(id), std::move(pufs));
  m.set_betas(BetaFactors{0.9, 1.1});
  return m;
}

void hash_batch(std::uint64_t& h, const ChallengeBatch& b) {
  mix(h, b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (const std::uint64_t w : b.row(i)) mix(h, w);
    mix(h, b.expected[i] ? 1 : 0);
  }
  mix(h, b.candidates_tried);
  mix(h, b.replay_rejected);
}

void hash_store(std::uint64_t& h, const std::string& dir, std::uint32_t n_shards) {
  for (std::uint32_t k = 0; k < n_shards; ++k) {
    std::ifstream in(dir + "/shard_" + std::to_string(k) + ".log", std::ios::binary);
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                          std::istreambuf_iterator<char>());
    std::uint64_t offset = 0;
    while (offset < bytes.size()) {
      store::RecordView view;
      ASSERT_EQ(store::decode_record(bytes.data(), bytes.size(), offset, view),
                store::RecordStatus::kOk);
      if (view.op != store::OpType::kRegister) {
        mix(h, static_cast<std::uint64_t>(view.op));
        mix(h, view.device_id);
        mix(h, view.payload_len);
        for (std::uint32_t i = 0; i < view.payload_len; ++i) mix(h, view.payload[i]);
      }
      offset = view.end;
    }
  }
}

/// (issued-batch hash, store-record hash) of one scripted fleet.
std::pair<std::uint64_t, std::uint64_t> run(std::size_t stages, std::size_t n_pufs) {
  const std::string dir =
      (fs::temp_directory_path() / ("xpuf_issuance_golden_" + std::to_string(stages) + "_" +
                                    std::to_string(n_pufs) + "_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  const DatabaseConfig cfg{.n_pufs = n_pufs,
                           .policy = {.challenge_count = 16},
                           .pool = {.target = 40, .low_water = 8, .seed = 0x90dd3e5ULL}};
  store::StoreOptions opts;
  opts.n_shards = 2;
  std::uint64_t issued = 0x1550e5;
  std::uint64_t stored = 0x5708e;
  {
    ServerDatabase db = ServerDatabase::open(dir, cfg, opts);
    for (std::uint64_t id = 0; id < 3; ++id) db.register_device(make_model(id, stages, n_pufs));
    for (std::uint64_t round = 0; round < 6; ++round) {
      for (std::size_t id = 0; id < 3; ++id) {
        Rng rng(1000 + round * 3 + id);
        hash_batch(issued, db.issue(id, rng));
      }
    }
    for (int rep = 0; rep < 2; ++rep) {
      Rng rng(77);  // re-seeded: the second walk meets the first one's rows
      hash_batch(issued, db.issue_live(2, rng));
    }
  }
  {
    // Reopen: drain heads reset, the durable ledger rejects the re-drain.
    ServerDatabase db = ServerDatabase::open(dir, cfg, opts);
    for (std::size_t id = 0; id < 3; ++id) {
      Rng rng(5000 + id);
      hash_batch(issued, db.issue(id, rng));
    }
    hash_store(stored, dir, opts.n_shards);
    db.save(dir);
  }
  hash_store(stored, dir, opts.n_shards);
  fs::remove_all(dir);
  return {issued, stored};
}

struct Golden {
  std::size_t stages;
  std::size_t n_pufs;
  std::uint64_t issued;
  std::uint64_t stored;
};

TEST(IssuanceGolden, PooledLiveReplayAndCompactedStoreAreBitIdentical) {
  const Golden goldens[] = {
      {32, 2, 0x61910f4d272523f1ULL, 0xe1a26a0e931248adULL},
      {32, 10, 0x689dcb85268e78fcULL, 0xb6f2ab72d25e8a37ULL},
      {64, 2, 0x57112569abbe2362ULL, 0x3300e6aa442ce472ULL},
      {64, 10, 0xbcfece8b602a519dULL, 0x16c276b57fa80cb5ULL},
      {100, 2, 0xa4130158cd9bada1ULL, 0xbda8858523eb04b0ULL},
      {100, 10, 0xc8755cb785dcf608ULL, 0x95c27fbf1e0475c3ULL},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE("stages " + std::to_string(g.stages) + " n " + std::to_string(g.n_pufs));
    const auto [issued, stored] = run(g.stages, g.n_pufs);
    EXPECT_EQ(issued, g.issued);
    EXPECT_EQ(stored, g.stored);
  }
}

}  // namespace
}  // namespace xpuf::puf
