// Ablation: the priority-queue substrate of TopKCT. The paper prescribes a
// Brodal queue [6]; topk/pairing_heap.h substitutes a pairing heap. This bench
// compares the pairing heap against std::priority_queue (binary heap) on
// the TopKCT access pattern — bursts of m pushes per pop, scores drifting
// downward — to show the substitution is not the bottleneck either way.

#include <benchmark/benchmark.h>

#include <queue>

#include "topk/pairing_heap.h"
#include "util/rng.h"

namespace {

using relacc::PairingHeap;
using relacc::Rng;

struct Obj {
  double w;
  int payload[4];
};
struct ObjLess {
  bool operator()(const Obj& a, const Obj& b) const { return a.w < b.w; }
};

/// TopKCT-like workload: pop one, push up to m successors with slightly
/// lower scores.
template <typename Queue, typename PushFn, typename PopFn>
void RunWorkload(benchmark::State& state, Queue& q, PushFn push, PopFn pop) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(42);
  for (auto _ : state) {
    push(Obj{1000.0, {}});
    for (int step = 0; step < 1000; ++step) {
      const Obj top = pop();
      benchmark::DoNotOptimize(top.w);
      for (int i = 0; i < m; ++i) {
        push(Obj{top.w - rng.UniformDouble(), {}});
      }
    }
    // Drain so iterations are independent.
    while (!q.empty()) pop();
  }
  state.SetItemsProcessed(state.iterations() * 1000 * (m + 1));
}

void BM_PairingHeap(benchmark::State& state) {
  PairingHeap<Obj, ObjLess> q;
  RunWorkload(
      state, q, [&](Obj o) { q.Push(o); }, [&] { return q.Pop(); });
}
BENCHMARK(BM_PairingHeap)->Arg(2)->Arg(6)->Arg(12);

void BM_StdPriorityQueue(benchmark::State& state) {
  std::priority_queue<Obj, std::vector<Obj>, ObjLess> q;
  RunWorkload(
      state, q, [&](Obj o) { q.push(o); },
      [&] {
        Obj top = q.top();
        q.pop();
        return top;
      });
}
BENCHMARK(BM_StdPriorityQueue)->Arg(2)->Arg(6)->Arg(12);

}  // namespace

BENCHMARK_MAIN();
