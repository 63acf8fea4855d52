#include "deploy/memory_plan.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace sky::deploy {
namespace {

std::string mb(std::int64_t bytes) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f MB", static_cast<double>(bytes) / 1e6);
    return buf;
}

}  // namespace

std::string MemoryPlan::summary() const {
    return "peak " + mb(peak_bytes) + ", arena " + mb(arena_bytes) + " in " +
           std::to_string(slots.size()) + " slots (no-reuse " + mb(total_bytes) +
           ")";
}

MemoryPlan plan_tensors(const std::vector<PlanTensor>& program, int output_node) {
    const int n = static_cast<int>(program.size());
    if (output_node < 0 || output_node >= n)
        throw std::invalid_argument("plan_tensors: output node out of range");

    MemoryPlan plan;
    plan.tensors.resize(program.size());

    // --- Liveness: last reader per node; the output survives the pass. ---
    for (int i = 0; i < n; ++i) {
        plan.tensors[static_cast<std::size_t>(i)].def = i;
        plan.tensors[static_cast<std::size_t>(i)].last = i;
        plan.tensors[static_cast<std::size_t>(i)].bytes =
            program[static_cast<std::size_t>(i)].bytes;
    }
    for (int i = 0; i < n; ++i) {
        for (const int in : program[static_cast<std::size_t>(i)].inputs) {
            if (in < 0 || in >= i)
                throw std::invalid_argument(
                    "plan_tensors: node " + std::to_string(i) +
                    " reads node " + std::to_string(in) +
                    " which is not an earlier node");
            if (program[static_cast<std::size_t>(in)].bytes == 0)
                throw std::invalid_argument(
                    "plan_tensors: node " + std::to_string(i) +
                    " reads elided node " + std::to_string(in) +
                    " (rewire consumers past elided nodes first)");
            plan.tensors[static_cast<std::size_t>(in)].last = i;
        }
    }
    plan.tensors[static_cast<std::size_t>(output_node)].last = n;

    // --- Exact peak: walk the steps, freeing after each tensor's last
    // reader has run.  At step i the live set is every tensor defined at or
    // before i whose last use is at or after i. ---------------------------
    std::vector<std::vector<int>> dies_after(static_cast<std::size_t>(n) + 1);
    for (int i = 0; i < n; ++i) {
        const TensorPlan& t = plan.tensors[static_cast<std::size_t>(i)];
        if (t.bytes == 0) continue;
        dies_after[static_cast<std::size_t>(std::min(t.last, n))].push_back(i);
    }
    std::int64_t live = 0;
    for (int i = 0; i < n; ++i) {
        const TensorPlan& t = plan.tensors[static_cast<std::size_t>(i)];
        plan.total_bytes += t.bytes;
        live += t.bytes;
        plan.peak_bytes = std::max(plan.peak_bytes, live);
        for (const int dead : dies_after[static_cast<std::size_t>(i)])
            live -= plan.tensors[static_cast<std::size_t>(dead)].bytes;
    }

    // --- Arena slots: greedy best-fit over the interval graph.  Tensors
    // whose intervals overlap can never share (interference); among the
    // free slots, pick the smallest one that already fits, else the largest
    // (grow it the least).  Deterministic: node order is the tie-break. ---
    std::vector<int> free_slots;
    for (int i = 0; i < n; ++i) {
        TensorPlan& t = plan.tensors[static_cast<std::size_t>(i)];
        if (t.bytes == 0) continue;
        int best = -1;
        for (const int s : free_slots) {
            const std::int64_t cap = plan.slots[static_cast<std::size_t>(s)].bytes;
            if (best == -1) {
                best = s;
                continue;
            }
            const std::int64_t bcap = plan.slots[static_cast<std::size_t>(best)].bytes;
            const bool fits = cap >= t.bytes, best_fits = bcap >= t.bytes;
            if (fits != best_fits ? fits : (fits ? cap < bcap : cap > bcap))
                best = s;
        }
        if (best == -1) {
            best = static_cast<int>(plan.slots.size());
            plan.slots.emplace_back();
        } else {
            free_slots.erase(std::find(free_slots.begin(), free_slots.end(), best));
        }
        PlanSlot& slot = plan.slots[static_cast<std::size_t>(best)];
        slot.bytes = std::max(slot.bytes, t.bytes);
        slot.tenants.push_back(i);
        t.slot = best;
        for (const int dead : dies_after[static_cast<std::size_t>(i)])
            free_slots.push_back(plan.tensors[static_cast<std::size_t>(dead)].slot);
    }
    for (const PlanSlot& s : plan.slots) plan.arena_bytes += s.bytes;
    return plan;
}

}  // namespace sky::deploy
