#include "io/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace sky::io {
namespace {

constexpr char kMagic[4] = {'S', 'K', 'Y', 'W'};
constexpr std::uint32_t kVersion = 1;

void write_or_throw(std::ofstream& out, const void* data, std::streamsize bytes) {
    out.write(static_cast<const char*>(data), bytes);
    if (!out) throw std::runtime_error("save_weights: write failed");
}

void read_or_throw(std::ifstream& in, void* data, std::streamsize bytes) {
    in.read(static_cast<char*>(data), bytes);
    if (!in) throw std::runtime_error("load_weights: unexpected end of file");
}

}  // namespace

namespace {

/// Parameters first, then non-trainable state (BN running statistics) —
/// everything a checkpoint needs to reproduce eval-mode behaviour.
std::vector<Tensor*> checkpoint_tensors(nn::Module& net) {
    std::vector<nn::ParamRef> params;
    net.collect_params(params);
    std::vector<Tensor*> tensors;
    tensors.reserve(params.size());
    for (const nn::ParamRef& p : params) tensors.push_back(p.value);
    net.collect_state(tensors);
    return tensors;
}

}  // namespace

void save_weights(nn::Module& net, const std::string& path) {
    const std::vector<Tensor*> tensors = checkpoint_tensors(net);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("save_weights: cannot open " + path);
    write_or_throw(out, kMagic, 4);
    write_or_throw(out, &kVersion, sizeof(kVersion));
    const std::uint64_t count = tensors.size();
    write_or_throw(out, &count, sizeof(count));
    for (const Tensor* t : tensors) {
        const Shape& s = t->shape();
        const std::int32_t dims[4] = {s.n, s.c, s.h, s.w};
        write_or_throw(out, dims, sizeof(dims));
        const std::uint64_t elems = static_cast<std::uint64_t>(t->size());
        write_or_throw(out, &elems, sizeof(elems));
        write_or_throw(out, t->data(),
                       static_cast<std::streamsize>(elems * sizeof(float)));
    }
}

void load_weights(nn::Module& net, const std::string& path) {
    const std::vector<Tensor*> tensors = checkpoint_tensors(net);
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("load_weights: cannot open " + path);
    char magic[4];
    read_or_throw(in, magic, 4);
    if (std::memcmp(magic, kMagic, 4) != 0)
        throw std::runtime_error("load_weights: bad magic in " + path);
    std::uint32_t version = 0;
    read_or_throw(in, &version, sizeof(version));
    if (version != kVersion)
        throw std::runtime_error("load_weights: unsupported version");
    std::uint64_t count = 0;
    read_or_throw(in, &count, sizeof(count));
    if (count != tensors.size())
        throw std::runtime_error("load_weights: tensor count mismatch (file " +
                                 std::to_string(count) + ", net " +
                                 std::to_string(tensors.size()) + ")");
    // Read and check the whole file before writing any tensor, so a file
    // that fails part-way leaves the network as it was.
    std::vector<std::vector<float>> payload(tensors.size());
    for (std::size_t i = 0; i < tensors.size(); ++i) {
        std::int32_t dims[4];
        read_or_throw(in, dims, sizeof(dims));
        const Shape expect = tensors[i]->shape();
        if (dims[0] != expect.n || dims[1] != expect.c || dims[2] != expect.h ||
            dims[3] != expect.w)
            throw std::runtime_error("load_weights: shape mismatch");
        std::uint64_t elems = 0;
        read_or_throw(in, &elems, sizeof(elems));
        if (elems != static_cast<std::uint64_t>(tensors[i]->size()))
            throw std::runtime_error("load_weights: element count mismatch");
        payload[i].resize(elems);
        read_or_throw(in, payload[i].data(),
                      static_cast<std::streamsize>(elems * sizeof(float)));
    }
    for (std::size_t i = 0; i < tensors.size(); ++i)
        std::copy(payload[i].begin(), payload[i].end(), tensors[i]->data());
}

std::int64_t serialized_size(nn::Module& net) {
    const std::vector<Tensor*> tensors = checkpoint_tensors(net);
    std::int64_t bytes = 4 + sizeof(std::uint32_t) + sizeof(std::uint64_t);
    for (const Tensor* t : tensors)
        bytes += 4 * sizeof(std::int32_t) + sizeof(std::uint64_t) +
                 t->size() * static_cast<std::int64_t>(sizeof(float));
    return bytes;
}

}  // namespace sky::io
