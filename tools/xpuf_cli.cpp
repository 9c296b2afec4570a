// xpuf_cli — command-line driver for the simulated XOR-PUF lifecycle.
//
// A "lot file" captures the fabrication parameters (chips are regenerated
// deterministically from it — the simulator plays the role of the fab), and
// a server model travels as a one-device enrollment store directory (the
// record format the server database serves from), so the phases can run as
// separate invocations just like a real enrollment line / authentication
// server:
//
//   xpuf_cli fabricate    --out lot.csv --chips 2 --pufs 10 --seed 2017
//   xpuf_cli enroll       --lot lot.csv --chip 0 --train 5000 --trials 10000
//                         --vt --out model            (one command line)
//   xpuf_cli authenticate --lot lot.csv --chip 0 --model model
//                         --voltage 0.8 --temperature 60 --count 64
//   xpuf_cli attack       --lot lot.csv --chip 0 --n 4 --crps 20000
//   xpuf_cli metrics      --lot lot.csv --n 10
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "analysis/puf_metrics.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "puf/attack.hpp"
#include "puf/authentication.hpp"
#include "puf/database.hpp"
#include "puf/threshold_adjust.hpp"
#include "sim/population.hpp"

namespace {

using namespace xpuf;

/// A model directory is a one-shard enrollment store.
const puf::store::StoreOptions kModelStore{.n_shards = 1, .cache_capacity = 1};

void write_lot(const sim::PopulationConfig& cfg, const std::string& path) {
  CsvWriter csv(path, {"chips", "pufs_per_chip", "stages", "seed"});
  csv.write_row(std::vector<std::string>{
      std::to_string(cfg.n_chips), std::to_string(cfg.n_pufs_per_chip),
      std::to_string(cfg.device.stages), std::to_string(cfg.seed)});
}

sim::PopulationConfig read_lot(const std::string& path) {
  const CsvData data = read_csv(path);
  if (data.rows.empty()) throw ParseError("lot file has no data row: " + path);
  sim::PopulationConfig cfg;
  cfg.n_chips = std::stoull(data.rows[0][data.column("chips")]);
  cfg.n_pufs_per_chip = std::stoull(data.rows[0][data.column("pufs_per_chip")]);
  cfg.device.stages = std::stoull(data.rows[0][data.column("stages")]);
  cfg.seed = std::stoull(data.rows[0][data.column("seed")]);
  return cfg;
}

int cmd_fabricate(const Cli& cli) {
  sim::PopulationConfig cfg;
  cfg.n_chips = static_cast<std::size_t>(cli.get_int("chips", 2));
  cfg.n_pufs_per_chip = static_cast<std::size_t>(cli.get_int("pufs", 10));
  cfg.device.stages = static_cast<std::size_t>(cli.get_int("stages", 32));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2017));
  const std::string out = cli.get("out", "lot.csv");
  write_lot(cfg, out);
  std::printf("fabricated lot: %zu chips x %zu PUFs x %zu stages (seed %llu) -> %s\n",
              cfg.n_chips, cfg.n_pufs_per_chip, cfg.device.stages,
              static_cast<unsigned long long>(cfg.seed), out.c_str());
  return 0;
}

int cmd_enroll(const Cli& cli) {
  const sim::PopulationConfig cfg = read_lot(cli.get("lot", "lot.csv"));
  sim::ChipPopulation pop(cfg);
  const auto chip_idx = static_cast<std::size_t>(cli.get_int("chip", 0));
  auto& chip = pop.chip(chip_idx);
  Rng rng(static_cast<std::uint64_t>(cli.get_int("rng", 1)));

  puf::EnrollmentConfig ecfg;
  ecfg.training_challenges = static_cast<std::size_t>(cli.get_int("train", 5'000));
  ecfg.trials = static_cast<std::uint64_t>(cli.get_int("trials", 10'000));
  puf::ServerModel model = puf::Enroller(ecfg).enroll(chip, rng);
  std::printf("enrolled chip %zu: %zu PUF models, r^2[0] = %.3f\n", chip_idx,
              model.puf_count(), model.puf(0).train_r_squared);

  const auto eval_n = static_cast<std::size_t>(cli.get_int("eval", 3'000));
  const auto eval = puf::random_challenges(chip.stages(), eval_n, rng);
  std::vector<puf::EvaluationBlock> blocks;
  if (cli.has("vt")) {
    for (const auto& env : sim::paper_corner_grid())
      blocks.push_back(puf::measure_evaluation_block(chip, eval, env, ecfg.trials, rng));
    std::printf("beta adjustment over the 9-corner V/T grid...\n");
  } else {
    blocks.push_back(puf::measure_evaluation_block(chip, eval,
                                                   sim::Environment::nominal(),
                                                   ecfg.trials, rng));
  }
  const puf::BetaSearchResult betas = puf::find_betas(model, blocks);
  model.set_betas(betas.betas);
  std::printf("betas: %.2f / %.2f (converged: %s)\n", betas.betas.beta0,
              betas.betas.beta1, betas.converged ? "yes" : "no");

  // The directory holds exactly this model: earlier enrollments are revoked
  // and compacted away.
  const std::string out = cli.get("out", "model");
  puf::DatabaseConfig db_cfg;
  db_cfg.n_pufs = model.puf_count();
  puf::ServerDatabase db = puf::ServerDatabase::open(out, db_cfg, kModelStore);
  for (const std::uint64_t id : db.store().device_ids()) db.revoke_device(id);
  db.register_device(std::move(model));
  db.save(out);
  std::printf("server model written to %s/\n", out.c_str());
  return 0;
}

int cmd_authenticate(const Cli& cli) {
  const sim::PopulationConfig cfg = read_lot(cli.get("lot", "lot.csv"));
  sim::ChipPopulation pop(cfg);
  const auto chip_idx = static_cast<std::size_t>(cli.get_int("chip", 0));
  const std::string dir = cli.get("model", "model");
  if (!std::filesystem::is_regular_file(std::filesystem::path(dir) / "store_manifest"))
    throw ParseError(dir + ": not a model directory (written by enroll --out)");
  const puf::store::EnrollmentStore store = puf::store::EnrollmentStore::open(dir, kModelStore);
  const std::vector<std::uint64_t> ids = store.device_ids();
  if (ids.size() != 1)
    throw ParseError(dir + ": a model directory holds one device, found " +
                     std::to_string(ids.size()));
  const std::shared_ptr<const puf::ServerModel> model = store.model(ids.front());
  Rng rng(static_cast<std::uint64_t>(cli.get_int("rng", 2)));

  const sim::Environment env{cli.get_double("voltage", 0.9),
                             cli.get_double("temperature", 25.0)};
  puf::AuthenticationPolicy policy;
  policy.challenge_count = static_cast<std::size_t>(cli.get_int("count", 64));
  policy.max_hamming_distance =
      static_cast<std::size_t>(cli.get_int("max-hd", 0));
  puf::AuthenticationServer server(*model, model->puf_count(), policy);
  const puf::AuthenticationOutcome out =
      server.authenticate(pop.chip(chip_idx), env, rng,
                          !cli.has("random-challenges"));
  std::printf("corner %s, %zu challenges (%s): %s — %zu mismatches\n",
              env.label().c_str(), out.challenges_used,
              cli.has("random-challenges") ? "random" : "model-selected",
              out.approved ? "APPROVED" : "DENIED", out.mismatches);
  return out.approved ? 0 : 1;
}

int cmd_attack(const Cli& cli) {
  const sim::PopulationConfig cfg = read_lot(cli.get("lot", "lot.csv"));
  sim::ChipPopulation pop(cfg);
  const auto chip_idx = static_cast<std::size_t>(cli.get_int("chip", 0));
  Rng rng(static_cast<std::uint64_t>(cli.get_int("rng", 3)));

  puf::AttackDatasetConfig dcfg;
  dcfg.n_pufs = static_cast<std::size_t>(cli.get_int("n", 4));
  dcfg.challenges = static_cast<std::size_t>(cli.get_int("crps", 20'000));
  dcfg.trials = static_cast<std::uint64_t>(cli.get_int("trials", 5'000));
  const puf::AttackDataset data =
      puf::build_stable_attack_dataset(pop.chip(chip_idx), dcfg, rng);
  std::printf("stable CRPs: %zu of %zu measured (%.1f%%)\n",
              data.train.size() + data.test.size(), data.challenges_measured,
              100.0 * data.stable_fraction);

  puf::MlpAttackConfig acfg;
  acfg.mlp.activation = ml::Activation::kTanh;
  acfg.lbfgs.max_iterations = static_cast<std::size_t>(cli.get_int("iters", 150));
  const puf::AttackResult res = puf::run_mlp_attack(data, acfg);
  std::printf("MLP (35/25/25, L-BFGS) attack on %zu-XOR: test accuracy %.3f "
              "(train %.3f, %.3f ms/CRP)\n",
              dcfg.n_pufs, res.test_accuracy, res.train_accuracy, res.ms_per_crp());
  return 0;
}

int cmd_metrics(const Cli& cli) {
  const sim::PopulationConfig cfg = read_lot(cli.get("lot", "lot.csv"));
  sim::ChipPopulation pop(cfg);
  Rng rng(static_cast<std::uint64_t>(cli.get_int("rng", 4)));
  const auto n = static_cast<std::size_t>(
      cli.get_int("n", static_cast<std::int64_t>(cfg.n_pufs_per_chip)));
  const auto challenges = static_cast<std::size_t>(cli.get_int("challenges", 2'000));

  std::printf("lot metrics at nominal corner (XOR width %zu, %zu challenges):\n", n,
              challenges);
  std::printf("  uniformity (chip 0):    %.4f (ideal 0.5)\n",
              analysis::uniformity(pop.chip(0), n, challenges,
                                   sim::Environment::nominal(), rng));
  if (pop.size() >= 2)
    std::printf("  uniqueness (lot):       %.4f (ideal 0.5)\n",
                analysis::uniqueness(pop, n, challenges, sim::Environment::nominal(),
                                     rng));
  std::printf("  reliability error:      %.4f at nominal, %.4f at 0.8V/60C "
              "(ideal 0)\n",
              analysis::reliability_error(pop.chip(0), n, challenges / 4, 5,
                                          sim::Environment::nominal(), rng),
              analysis::reliability_error(pop.chip(0), n, challenges / 4, 5,
                                          {0.8, 60.0}, rng));
  return 0;
}

void usage() {
  std::printf(
      "xpuf_cli <command> [options]\n"
      "commands:\n"
      "  fabricate    --out lot.csv --chips N --pufs M --stages K --seed S\n"
      "  enroll       --lot lot.csv --chip I --train N --trials K [--vt] --out DIR\n"
      "  authenticate --lot lot.csv --chip I --model DIR [--voltage V]\n"
      "               [--temperature T] [--count N] [--max-hd H] [--random-challenges]\n"
      "  attack       --lot lot.csv --chip I --n W --crps N [--iters I]\n"
      "  metrics      --lot lot.csv [--n W] [--challenges N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    if (cli.positional().empty()) {
      usage();
      return 2;
    }
    const std::string& command = cli.positional().front();
    if (command == "fabricate") return cmd_fabricate(cli);
    if (command == "enroll") return cmd_enroll(cli);
    if (command == "authenticate") return cmd_authenticate(cli);
    if (command == "attack") return cmd_attack(cli);
    if (command == "metrics") return cmd_metrics(cli);
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
