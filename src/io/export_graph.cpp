#include "io/export_graph.hpp"

#include <sstream>

#include "core/json.hpp"

namespace sky::io {
namespace {

void append_layer(std::ostringstream& os, const nn::LayerInfo& li, bool first) {
    if (!first) os << ",";
    os << "\n    {\"name\": \"" << core::json_escape(li.name) << "\", \"kind\": \""
       << core::json_escape(li.kind) << "\", \"in\": " << li.in.str()
       << ", \"out\": " << li.out.str() << ", \"macs\": " << li.macs
       << ", \"params\": " << li.params << "}";
}

}  // namespace

std::string export_layers_json(const nn::Module& net, const Shape& input) {
    std::vector<nn::LayerInfo> layers;
    net.enumerate(input, layers);
    std::ostringstream os;
    os << "{\n  \"input\": " << input.str() << ",\n  \"layers\": [";
    bool first = true;
    for (const auto& li : layers) {
        append_layer(os, li, first);
        first = false;
    }
    os << "\n  ]\n}\n";
    return os.str();
}

std::string export_graph_json(const nn::Graph& graph, const Shape& input) {
    std::ostringstream os;
    os << "{\n  \"input\": " << input.str() << ",\n  \"output_node\": "
       << graph.output_node() << ",\n  \"nodes\": [";
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
        if (i) os << ",";
        os << "\n    {\"id\": " << i << ", \"kind\": \"";
        switch (graph.node_kind(i)) {
            case nn::Graph::NodeKind::kInput: os << "input"; break;
            case nn::Graph::NodeKind::kModule: os << "module"; break;
            case nn::Graph::NodeKind::kConcat: os << "concat"; break;
            case nn::Graph::NodeKind::kAdd: os << "add"; break;
        }
        os << "\", \"inputs\": [";
        const auto& ins = graph.node_inputs(i);
        for (std::size_t j = 0; j < ins.size(); ++j) {
            if (j) os << ", ";
            os << ins[j];
        }
        os << "]";
        if (const nn::Module* m = graph.node_module(i))
            os << ", \"module\": \"" << core::json_escape(m->name())
               << "\", \"layer_kind\": \"" << core::json_escape(m->kind())
               << "\", \"params\": " << m->param_count();
        os << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

}  // namespace sky::io
