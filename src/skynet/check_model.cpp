#include "skynet/check_model.hpp"

#include <string>

namespace sky::verify {

Report check_model(const SkyNetModel& model, const Shape& input) {
    if (!model.net) {
        Report rep;
        rep.error("M003", -1, "SkyNetModel has no network", "build the model first");
        return rep;
    }
    Report rep = check_graph(*model.net, input);

    const int count = static_cast<int>(model.net->node_count());
    const int tap = model.feature_node();
    if (tap < 0 || tap >= count) {
        rep.error("M001", tap, "feature tap node id is out of range",
                  "point feature_node at the last Bundle's activation node");
        return rep;
    }
    // Cheap metadata cross-check: the tap's channel count (as the graph
    // infers it) must match what the trackers will size their embeddings by.
    // check_graph was clean, so shape inference is safe.
    if (rep.ok()) {
        const int got = model.net->infer_shapes(input)[static_cast<std::size_t>(tap)].c;
        if (model.feature_channels() != got)
            rep.warn("M002", tap,
                     "feature tap metadata says " + std::to_string(model.feature_channels()) +
                         " channels but the graph emits " + std::to_string(got),
                     "keep the feature_channels() metadata in sync with the tap node");
    }
    return rep;
}

}  // namespace sky::verify
