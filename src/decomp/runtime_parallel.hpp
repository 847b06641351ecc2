#pragma once

#include <utility>
#include <vector>

#include "decomp/decomposition.hpp"
#include "rts/runtime.hpp"

namespace paratreet {

/// ParallelFor backed by the worker runtime: tasks are enqueued
/// round-robin over the given (live) ranks and run() blocks in drain()
/// until quiescence. This is how the decomposition pipeline shares the
/// step loop's workers instead of running on the orchestrator thread.
///
/// Tasks must not touch state owned by other tasks of the same run()
/// (the histogram passes write chunk-local buffers, the plane selections
/// their own region's record range). A rank crash during drain()
/// surfaces as rts::QuiescenceTimeout exactly like the
/// build/traversal phases; queued closures on the crashed rank are
/// purged before recovery re-runs the step, so the by-reference captures
/// here never outlive the enclosing run() call.
class RuntimeParallelFor final : public ParallelFor {
 public:
  RuntimeParallelFor(rts::Runtime& rt, std::vector<int> procs)
      : rt_(rt), procs_(std::move(procs)) {}

  int ways() const override {
    return static_cast<int>(procs_.size()) * rt_.workersPerProc();
  }

  void run(int n_tasks, const std::function<void(int)>& fn) override {
    for (int i = 0; i < n_tasks; ++i) {
      rt_.enqueue(procs_[static_cast<std::size_t>(i) % procs_.size()],
                  [&fn, i] { fn(i); });
    }
    rt_.drain();
  }

 private:
  rts::Runtime& rt_;
  std::vector<int> procs_;
};

}  // namespace paratreet
