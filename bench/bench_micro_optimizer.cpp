// Micro-benchmarks of the multistore optimizer: view-based rewriting,
// split enumeration, and full what-if costing. These bound the per-query
// optimization overhead the simulator (and a real system) would pay.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "hv/hv_store.h"
#include "optimizer/split_enumerator.h"
#include "views/rewriter.h"

namespace miso {
namespace {

using bench_util::Catalog;
using bench_util::Workload;

struct OptimizerFixture {
  OptimizerFixture()
      : factory(&Catalog()),
        hv_model(hv::HvConfig{}),
        dw_model(dw::DwConfig{}),
        transfer_model(transfer::TransferConfig{}),
        optimizer(&factory, &hv_model, &dw_model, &transfer_model),
        hv_catalog(100 * kTiB),
        dw_catalog(400 * kGiB) {
    hv::HvStore store(hv::HvConfig{}, 100 * kTiB);
    uint64_t next_id = 1;
    for (int i = 0; i < 8; ++i) {
      const plan::Plan& q = Workload().queries()[static_cast<size_t>(i)].plan;
      auto exec = store.Execute(q.root(), i, 0, &next_id, q.signature());
      for (views::View& v : exec->produced_views) {
        // Spread small views into DW, rest into HV.
        if (v.size_bytes < 2 * kGiB && dw_catalog.used_bytes() < 100 * kGiB) {
          dw_catalog.AddUnchecked(std::move(v));
        } else {
          hv_catalog.AddUnchecked(std::move(v));
        }
      }
    }
  }

  plan::NodeFactory factory;
  hv::HvCostModel hv_model;
  dw::DwCostModel dw_model;
  transfer::TransferModel transfer_model;
  optimizer::MultistoreOptimizer optimizer;
  views::ViewCatalog hv_catalog;
  views::ViewCatalog dw_catalog;
};

OptimizerFixture& Fixture() {
  static auto* fixture = new OptimizerFixture();
  return *fixture;
}

void BM_Rewrite(benchmark::State& state) {
  OptimizerFixture& f = Fixture();
  views::Rewriter rewriter(&f.factory);
  // A later version query that can reuse the harvested views.
  const plan::Plan& q = Workload().queries()[11].plan;
  for (auto _ : state) {
    auto rewritten =
        rewriter.Rewrite(q, f.dw_catalog, f.hv_catalog, nullptr);
    benchmark::DoNotOptimize(rewritten);
  }
}
BENCHMARK(BM_Rewrite);

void BM_SplitEnumeration(benchmark::State& state) {
  const plan::Plan& q = Workload().queries()[3].plan;
  for (auto _ : state) {
    auto splits = optimizer::EnumerateSplits(q.root());
    benchmark::DoNotOptimize(splits);
  }
}
BENCHMARK(BM_SplitEnumeration);

void BM_WhatIfCost(benchmark::State& state) {
  // A cold probe through the memoized path every what-if caller takes: a
  // fresh session per iteration, so nothing is answered from the memo.
  OptimizerFixture& f = Fixture();
  const plan::Plan& q = Workload().queries()[11].plan;
  for (auto _ : state) {
    optimizer::WhatIfSession session;
    auto cost =
        f.optimizer.WhatIfCost(q, f.dw_catalog, f.hv_catalog, session);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_WhatIfCost);

void BM_FullOptimize(benchmark::State& state) {
  OptimizerFixture& f = Fixture();
  for (auto _ : state) {
    for (int i = 8; i < 16; ++i) {
      auto best = f.optimizer.Optimize(
          Workload().queries()[static_cast<size_t>(i)].plan, f.dw_catalog,
          f.hv_catalog);
      benchmark::DoNotOptimize(best);
    }
  }
  state.SetLabel("8 queries per iteration");
}
BENCHMARK(BM_FullOptimize);

void BM_FullOptimizeThreaded(benchmark::State& state) {
  // Same 8 queries as BM_FullOptimize, but with candidate costing fanned
  // out over a pool; the plans produced are bit-identical to the serial
  // run for every thread count (the Arg is the pool size).
  OptimizerFixture& f = Fixture();
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads);
  f.optimizer.set_thread_pool(threads > 1 ? &pool : nullptr);
  for (auto _ : state) {
    for (int i = 8; i < 16; ++i) {
      auto best = f.optimizer.Optimize(
          Workload().queries()[static_cast<size_t>(i)].plan, f.dw_catalog,
          f.hv_catalog);
      benchmark::DoNotOptimize(best);
    }
  }
  f.optimizer.set_thread_pool(nullptr);
  state.SetLabel("8 queries per iteration, " + std::to_string(threads) +
                 " thread(s)");
}
BENCHMARK(BM_FullOptimizeThreaded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_PlanConstruction(benchmark::State& state) {
  for (auto _ : state) {
    auto workload = workload::EvolutionaryWorkload::Generate(
        &Catalog(), workload::WorkloadConfig{});
    benchmark::DoNotOptimize(workload);
  }
  state.SetLabel("32 annotated plans");
}
BENCHMARK(BM_PlanConstruction);

}  // namespace
}  // namespace miso

BENCHMARK_MAIN();
