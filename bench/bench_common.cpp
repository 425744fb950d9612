#include "bench_common.hpp"

#include <cstdio>

#include "runtime/scenario.hpp"
#include "support/string_util.hpp"

namespace ncg::bench {

std::string ciCell(const RunningStat& stat, int decimals) {
  return formatWithCi(stat.mean(), stat.ci95HalfWidth(), decimals);
}

void printHeader(const std::string& title, const std::string& paperRef) {
  const std::string text = runtime::headerText(title, paperRef);
  std::fputs(text.c_str(), stdout);
}

}  // namespace ncg::bench
