// Reproduces paper Fig. 15: hardware portability — the two communication
// strategies with dynamic load balance on the x86 Tianhe-2 profile vs the
// ARMv8 Tianhe-3 prototype profile, across Datasets 2, 4 (smaller grid) and
// 5, 6 (larger grid). Paper shape: similar strong-scaling behaviour on both
// architectures, with the DC/CC gap narrowing on the larger-grid datasets.

#include <cstdio>
#include <map>

#include "common.hpp"

using namespace dsmcpic;
using bench::BenchOptions;

int main(int argc, char** argv) {
  Cli cli("Fig. 15 — portability across Tianhe-2 (x86) and Tianhe-3 (ARM) "
          "profiles, Datasets 2/4/5/6");
  bench::CommonFlags common(cli, "bench_fig15_portability", "24,96,384", 30);
  const auto* ds_list = cli.add_string("datasets", "2,4,5,6", "dataset ids");
  if (!bench::parse_or_usage(cli, argc, argv)) return 0;
  const BenchOptions base_opt = bench::finish_or_usage([&] { return common.finish(); });
  const std::vector<int> dataset_ids =
      bench::parse_rank_list(*ds_list, "datasets");

  for (const char* machine : {"tianhe2", "tianhe3"}) {
    for (const int id : dataset_ids) {
      BenchOptions opt = base_opt;
      opt.machine = machine;
      const core::Dataset ds = core::make_dataset(id, opt.particle_scale);

      std::map<std::string, std::map<int, double>> times;
      for (const auto strategy : {exchange::Strategy::kDistributed,
                                  exchange::Strategy::kCentralized}) {
        for (const int nranks : opt.ranks) {
          const auto par = bench::make_parallel(ds, nranks, strategy, true, opt);
          times[exchange::strategy_name(strategy)][nranks] =
              bench::run_case(ds, par, opt).total_time;
          std::fprintf(stderr, "  done %s %s %s ranks=%d\n", machine,
                       ds.name.c_str(), exchange::strategy_name(strategy),
                       nranks);
        }
      }

      Table t("Fig. 15 — " + std::string(machine) + ", " + ds.name +
              " (total virtual seconds)");
      std::vector<std::string> header{"strategy"};
      for (const int n : opt.ranks) header.push_back(std::to_string(n));
      header.push_back("DC/CC gap @max");
      t.header(header);
      for (const char* s : {"DC", "CC"}) {
        std::vector<std::string> row{s};
        for (const int n : opt.ranks) row.push_back(Table::num(times[s][n], 1));
        if (std::string(s) == "CC") {
          const int last = opt.ranks.back();
          row.push_back(Table::pct((times["CC"][last] - times["DC"][last]) /
                                   times["DC"][last]));
        } else {
          row.push_back("");
        }
        t.row(row);
      }
      t.print();
      std::printf("\n");
    }
  }
  std::printf(
      "Paper shape check: similar scaling on both architectures; the DC/CC "
      "gap is smaller on the large-grid Datasets 5/6 than on 2/4.\n");
  return 0;
}
