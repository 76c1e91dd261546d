// Ablation: pipeline depth (paper §I names NFV chains as the other
// multi-stage target).
//
// Uses the synthetic engine-level pipeline to sweep 2..6 stages under a
// saturating burst and reports the first-packet completion time per mode:
// vanilla's interleaving penalty compounds with depth, PRISM's
// streamlined order keeps it linear.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "harness/synthetic_pipeline.h"

namespace {

prism::sim::Time first_delivery(prism::kernel::NapiMode mode, int stages) {
  using namespace prism;
  harness::SyntheticPipeline p(mode, stages);
  p.feed(*p.source_high, 64 * 4);
  p.sim.run();
  sim::Time first = p.deliveries.front().at;
  for (const auto& d : p.deliveries) first = std::min(first, d.at);
  return first;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prism;
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation", "pipeline depth (NFV-chain scaling), first-batch "
                  "completion");

  stats::Table table({"stages", "vanilla(us)", "prism-batch(us)",
                      "prism-sync(us)", "batch gain", "sync gain"});
  for (int stages = 2; stages <= 6; ++stages) {
    const auto vanilla =
        first_delivery(kernel::NapiMode::kVanilla, stages);
    const auto batch =
        first_delivery(kernel::NapiMode::kPrismBatch, stages);
    const auto sync = first_delivery(kernel::NapiMode::kPrismSync, stages);
    table.add_row(
        {std::to_string(stages), bench::us(vanilla), bench::us(batch),
         bench::us(sync),
         stats::Table::cell(
             100.0 * (1.0 - static_cast<double>(batch) /
                                static_cast<double>(vanilla)),
             0) + "%",
         stats::Table::cell(
             100.0 * (1.0 - static_cast<double>(sync) /
                                static_cast<double>(vanilla)),
             0) + "%"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Each extra stage costs vanilla roughly two extra batch times (its\n"
      "own batch plus the interleaved next-batch stage), while PRISM's\n"
      "streamlined order pays one — the deeper the pipeline, the larger\n"
      "PRISM's advantage.\n");
  return 0;
}
