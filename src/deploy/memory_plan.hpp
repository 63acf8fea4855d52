// Static activation-memory planning via tensor liveness analysis.
//
// A topologically-ordered graph executes one node per step; a node's output
// buffer must exist from its defining step through the last step that reads
// it (the graph output lives to the end of the pass).  From those live
// intervals this pass derives, without running anything:
//
//   * peak_bytes   — the exact maximum of live activation bytes over all
//                    program points: the smallest memory any executor that
//                    frees buffers after their last use can run in,
//   * an arena slot assignment — interference-aware reuse where tensors
//                    with disjoint live intervals share one growable slot
//                    (greedy best-fit on the interval graph), and
//   * arena_bytes  — the sum of slot capacities: what a slot-backed
//                    executor actually reserves (>= peak_bytes, typically
//                    far below the no-reuse total_bytes).
//
// quant::plan_activations hands this pass the lowered program's executing
// ops; quant::QEngine executes its integer pass out of exactly that plan
// (allocation-free at steady state, pinned through serve::Engine by
// Engine.QuantizedReplicaServesFromItsPlannedArena), verify::analyze
// and tools/skyanalyze report the same plan, quant::QuantReport carries it,
// and serve::Engine exports its arena as the `serve.activation_plan_bytes`
// capacity-planning gauge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sky::deploy {

/// One tensor of the abstract program handed to plan_tensors(): who it
/// reads, and how many bytes its output occupies.  bytes == 0 marks an
/// elided node (a skipped identity or a fused op, whose value another
/// node's buffer holds): it allocates nothing and must have no consumers.
struct PlanTensor {
    std::vector<int> inputs;
    std::int64_t bytes = 0;
};

/// One arena slot of the plan: capacity (its largest tenant) and the nodes
/// that reside in it over the program, in residency order.
struct PlanSlot {
    std::int64_t bytes = 0;
    std::vector<int> tenants;
};

/// Where one tensor lives: its slot (-1 for elided tensors), its size, and
/// its live interval [def, last] in node order (last == node count for the
/// program output, which survives the pass).
struct TensorPlan {
    int slot = -1;
    std::int64_t bytes = 0;
    int def = 0;
    int last = 0;
};

struct MemoryPlan {
    std::vector<TensorPlan> tensors;  ///< one per node, in node order
    std::vector<PlanSlot> slots;
    std::int64_t peak_bytes = 0;   ///< exact max live bytes at any step
    std::int64_t arena_bytes = 0;  ///< sum of slot capacities
    std::int64_t total_bytes = 0;  ///< no-reuse sum of all tensor bytes

    /// "peak 1.4 MB, arena 1.6 MB in 4 slots (no-reuse 9.8 MB)".
    [[nodiscard]] std::string summary() const;
};

/// Plan an abstract program (any executor that runs nodes in order and
/// frees each buffer after its last reader — quant::QEngine's shape).
/// `output_node` is kept live through the end of the pass.  Throws
/// std::invalid_argument on malformed edges or a consumed elided node.
[[nodiscard]] MemoryPlan plan_tensors(const std::vector<PlanTensor>& program,
                                      int output_node);

}  // namespace sky::deploy
