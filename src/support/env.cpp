#include "support/env.hpp"

#include <cstdlib>
#include <thread>

#include "support/string_util.hpp"

namespace ncg::env {

int trials() { return envInt("NCG_TRIALS", 8); }

bool fullScale() { return envInt("NCG_SCALE", 0) == 1; }

int procs() {
  const unsigned cores = std::thread::hardware_concurrency();
  return envInt("NCG_PROCS", cores > 0 ? static_cast<int>(cores) : 1);
}

std::string serveAddress() {
  const char* value = std::getenv("NCG_SERVE_ADDR");
  return value != nullptr && value[0] != '\0' ? value : "127.0.0.1:0";
}

int heartbeatMs() { return envInt("NCG_HEARTBEAT_MS", 5000); }

int retryBudget() { return envInt("NCG_RETRY_BUDGET", 1000); }

int chaosSeed() { return envInt("NCG_CHAOS_SEED", 0); }

long long arenaBudget() { return envInt64("NCG_ARENA_BUDGET", 0); }

std::string arenaDir() {
  const char* value = std::getenv("NCG_ARENA_DIR");
  if (value != nullptr && value[0] != '\0') return value;
  const char* tmpdir = std::getenv("TMPDIR");
  if (tmpdir != nullptr && tmpdir[0] != '\0') return tmpdir;
  return "/tmp";
}

bool arenaBackendRam() {
  const char* value = std::getenv("NCG_ARENA_BACKEND");
  return value != nullptr && std::string(value) == "ram";
}

}  // namespace ncg::env
