#include "common/cli.hpp"

#include <cstdlib>
#include <thread>

#include "common/error.hpp"

namespace xpuf {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--key value" form: consume the next token unless it is another flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "";
    }
  }
}

bool Cli::has(const std::string& name) const { return options_.count(name) != 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw ParseError("option --" + name + " expects an integer, got '" + it->second + "'");
  }
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw ParseError("option --" + name + " expects a number, got '" + it->second + "'");
  }
}

BenchScale resolve_scale(const Cli& cli) {
  std::string scale = cli.get("scale", "");
  if (scale.empty()) {
    const char* env = std::getenv("XPUF_BENCH_SCALE");
    if (env != nullptr) scale = env;
  }
  const bool full = (scale == "full" || scale == "paper");

  BenchScale s{};
  if (full) {
    s = {1'000'000, 100'000, 10, 100'000, true, 0};
  } else {
    s = {100'000, 10'000, 3, 20'000, false, 0};
  }
  s.challenges = static_cast<std::uint64_t>(
      cli.get_int("challenges", static_cast<std::int64_t>(s.challenges)));
  s.trials = static_cast<std::uint64_t>(
      cli.get_int("trials", static_cast<std::int64_t>(s.trials)));
  s.chips = static_cast<std::uint64_t>(
      cli.get_int("chips", static_cast<std::int64_t>(s.chips)));
  s.attack_max_train = static_cast<std::uint64_t>(
      cli.get_int("attack-max-train", static_cast<std::int64_t>(s.attack_max_train)));

  // Thread count: --threads beats XPUF_THREADS beats hardware_concurrency
  // (0 = let the pool pick hardware_concurrency).
  std::int64_t threads = 0;
  if (const char* env = std::getenv("XPUF_THREADS"); env != nullptr && *env != '\0')
    threads = std::atoll(env);
  threads = cli.get_int("threads", threads);
  if (threads <= 0) threads = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  if (threads <= 0) threads = 1;
  s.threads = static_cast<std::uint64_t>(threads);
  return s;
}

}  // namespace xpuf
