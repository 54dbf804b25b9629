// Reproduces paper Fig. 12: sensitivity of the DC+LB solver to the
// rebalancing period T. Small T rebalances often (overhead may exceed the
// benefit); large T lets imbalance build up. The paper finds T=20 slightly
// best at small rank counts and T=10 slightly best as the count grows; our
// scaled run's population grows faster, shifting the sweet spot toward the
// smaller T values (same trade-off, compressed).

#include <cstdio>
#include <map>

#include "common.hpp"

using namespace dsmcpic;
using bench::BenchOptions;

int main(int argc, char** argv) {
  Cli cli("Fig. 12 — impact of the rebalance period T (DC+LB, Dataset 2 "
          "analogue, Tianhe-2 profile)");
  bench::CommonFlags common(cli, "bench_fig12_T_sweep", "24,48,96,192,384", 40);
  const auto* t_list = cli.add_string("T", "5,10,20", "T values to sweep");
  if (!bench::parse_or_usage(cli, argc, argv)) return 0;
  const BenchOptions opt = bench::finish_or_usage([&] { return common.finish(); });
  const std::vector<int> periods = bench::parse_rank_list(*t_list, "T");

  const core::Dataset ds = core::make_dataset(2, opt.particle_scale);

  std::map<int, std::map<int, double>> times;  // [T][ranks]
  for (const int T : periods) {
    for (const int nranks : opt.ranks) {
      auto par = bench::make_parallel(ds, nranks,
                                      exchange::Strategy::kDistributed, true,
                                      opt);
      par.balance.period = T;
      times[T][nranks] = bench::run_case(ds, par, opt).total_time;
      std::fprintf(stderr, "  done T=%d ranks=%d\n", T, nranks);
    }
  }

  Table t("Fig. 12 — total execution time (virtual seconds) per T");
  std::vector<std::string> header{"T"};
  for (const int n : opt.ranks) header.push_back(std::to_string(n));
  t.header(header);
  for (const int T : periods) {
    std::vector<std::string> row{"T = " + std::to_string(T)};
    for (const int n : opt.ranks) row.push_back(Table::num(times[T][n], 1));
    t.row(row);
  }
  t.print();
  std::printf(
      "\nPaper shape check: the T values stay within a few percent of each "
      "other, with smaller T gaining as the rank count grows.\n");
  return 0;
}
