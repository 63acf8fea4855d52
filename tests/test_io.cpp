// Weight serialization: round trips, size accounting, the failure modes
// (wrong file, wrong architecture, truncated payload) and what a load does
// to a model that is already in eval mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "deploy/fold_bn.hpp"
#include "io/serialize.hpp"
#include "nn/batchnorm.hpp"
#include "skynet/skynet_model.hpp"
#include "unfused_reference.hpp"

namespace sky::io {
namespace {

std::string temp_path(const char* tag) {
    return std::string(::testing::TempDir()) + "skynet_io_" + tag + ".bin";
}

SkyNetModel quarter_c(std::uint64_t seed) {
    Rng rng(seed);
    return build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
}

Tensor probe_input() {
    Tensor x({1, 3, 32, 64});
    Rng xr(3);
    x.rand_uniform(xr, 0.0f, 1.0f);
    return x;
}

/// Elements whose bit patterns differ (every element when the shapes do).
std::int64_t differing_bits(const Tensor& a, const Tensor& b) {
    if (!(a.shape() == b.shape())) return std::max(a.size(), b.size());
    std::int64_t n = 0;
    for (std::int64_t i = 0; i < a.size(); ++i)
        n += std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0;
    return n;
}

TEST(Serialize, RoundTripRestoresExactWeights) {
    Rng rng(1);
    SkyNetModel a = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.2f}, rng);
    const std::string path = temp_path("roundtrip");
    save_weights(*a.net, path);

    Rng rng2(999);  // different init
    SkyNetModel b = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.2f}, rng2);
    load_weights(*b.net, path);

    std::vector<nn::ParamRef> pa, pb;
    a.net->collect_params(pa);
    b.net->collect_params(pb);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        for (std::int64_t j = 0; j < pa[i].value->size(); ++j)
            ASSERT_FLOAT_EQ((*pa[i].value)[j], (*pb[i].value)[j]) << i << "," << j;
    std::remove(path.c_str());
}

TEST(Serialize, LoadedModelProducesIdenticalOutput) {
    Rng rng(2);
    SkyNetModel a = build_skynet({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.2f}, rng);
    a.net->set_training(false);
    Tensor x({1, 3, 32, 64});
    Rng xr(3);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const Tensor ya = a.net->forward(x);

    const std::string path = temp_path("identical");
    save_weights(*a.net, path);
    Rng rng2(55);
    SkyNetModel b = build_skynet({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.2f}, rng2);
    load_weights(*b.net, path);
    b.net->set_training(false);
    const Tensor yb = b.net->forward(x);
    ASSERT_EQ(ya.size(), yb.size());
    for (std::int64_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
    std::remove(path.c_str());

    // A deployed model: BN-folded SkyNet-C whose BN shifts and statistics
    // moved before folding.  Every folded bias, the depthwise convs' too,
    // must reach the checkpoint; a freshly built model folds to all-zero
    // shifts, so a dropped bias shows in the output.
    const auto folded_c = [](std::uint64_t seed, bool trained) {
        Rng r(seed);
        SkyNetModel m = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, r);
        if (trained) {
            for (std::size_t i = 0; i < m.net->node_count(); ++i)
                if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(m.net->node_module(i)))
                    bn->beta().rand_uniform(r, -0.5f, 0.5f);
            for (int step = 0; step < 3; ++step) {
                Tensor batch({2, 3, 32, 64});
                batch.rand_uniform(r, 0.0f, 1.0f);
                (void)m.net->forward(batch);
            }
        }
        EXPECT_EQ(deploy::fold_graph_bn(*m.net), 12);
        return m;
    };
    SkyNetModel deployed = folded_c(7, true);
    deployed.net->set_training(false);
    const Tensor yd = deployed.net->forward(x);
    const std::string folded_path = temp_path("folded");
    save_weights(*deployed.net, folded_path);
    SkyNetModel fresh = folded_c(77, false);
    load_weights(*fresh.net, folded_path);
    fresh.net->set_training(false);
    const Tensor yf = fresh.net->forward(x);
    ASSERT_EQ(yd.shape(), yf.shape());
    for (std::int64_t i = 0; i < yd.size(); ++i) {
        std::uint32_t u = 0, v = 0;
        std::memcpy(&u, &yd.data()[i], sizeof u);
        std::memcpy(&v, &yf.data()[i], sizeof v);
        ASSERT_EQ(u, v) << "folded, element " << i << ": " << yd[i] << " vs " << yf[i];
    }
    std::remove(folded_path.c_str());
}

TEST(Serialize, LoadIntoAnEvalModelRunsTheLoadedWeights) {
    // An eval model that has run a forward holds weight packs and cached BN
    // affines.  A load writes the weights, the BN gammas and betas and the
    // running statistics through collect_params and collect_state, which
    // drop both, so the next forward is bitwise the saved model's, and so is
    // the one after the repack of set_training(false).  The saved model's BN
    // statistics and gammas/betas differ from the loading model's, so an
    // affine cached before the load would show right after it.
    const Tensor x = probe_input();
    SkyNetModel a = quarter_c(1);
    ASSERT_GT(testing::randomize_bn(*a.net, 5), 0);
    a.net->set_training(false);
    const Tensor ya = a.net->forward(x);
    const std::string path = temp_path("evalload");
    save_weights(*a.net, path);

    SkyNetModel b = quarter_c(2);
    b.net->set_training(false);
    ASSERT_EQ(differing_bits(b.net->forward(x), ya), ya.size());
    load_weights(*b.net, path);
    EXPECT_EQ(differing_bits(b.net->forward(x), ya), 0) << "right after the load";
    b.net->set_training(false);
    EXPECT_EQ(differing_bits(b.net->forward(x), ya), 0) << "after set_training(false)";
    std::remove(path.c_str());
}

TEST(Serialize, FailedLoadLeavesTheModelUnchanged) {
    // Another model's checkpoint, broken two ways: cut 16 bytes short, and
    // with its last tensor's header claiming one channel more.  Each load
    // throws before it writes anything.
    SkyNetModel a = quarter_c(1);
    const std::string path = temp_path("failsource");
    save_weights(*a.net, path);
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
    in.close();
    std::remove(path.c_str());
    std::vector<Tensor*> state;
    a.net->collect_state(state);
    ASSERT_FALSE(state.empty());
    // The last tensor's header: 4 x i32 shape, then its u64 element count.
    const auto last_elems = static_cast<std::size_t>(state.back()->size());
    const std::size_t dims_c = bytes.size() - last_elems * sizeof(float) -
                               sizeof(std::uint64_t) - 3 * sizeof(std::int32_t);
    std::vector<char> reshaped = bytes;
    std::int32_t channels = 0;
    std::memcpy(&channels, &reshaped[dims_c], sizeof channels);
    ASSERT_EQ(channels, state.back()->shape().c);
    ++channels;
    std::memcpy(&reshaped[dims_c], &channels, sizeof channels);
    const std::vector<std::pair<const char*, std::vector<char>>> bad_files = {
        {"truncated", std::vector<char>(bytes.begin(), bytes.end() - 16)},
        {"wrong last shape", reshaped},
    };

    const Tensor x = probe_input();
    SkyNetModel b = quarter_c(2);
    b.net->set_training(false);
    const Tensor yb = b.net->forward(x);
    for (const auto& [what, file] : bad_files) {
        const std::string bad = temp_path("bad");
        std::ofstream out(bad, std::ios::binary | std::ios::trunc);
        out.write(file.data(), static_cast<std::streamsize>(file.size()));
        out.close();
        EXPECT_THROW(load_weights(*b.net, bad), std::runtime_error) << what;
        EXPECT_EQ(differing_bits(b.net->forward(x), yb), 0) << what;
        b.net->set_training(false);
        EXPECT_EQ(differing_bits(b.net->forward(x), yb), 0) << what << ", repacked";
        std::remove(bad.c_str());
    }
}

TEST(Serialize, SizeMatchesPrediction) {
    Rng rng(4);
    SkyNetModel m = build_skynet({SkyNetVariant::kB, nn::Act::kReLU, 2, 0.2f}, rng);
    const std::string path = temp_path("size");
    save_weights(*m.net, path);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good());
    EXPECT_EQ(static_cast<std::int64_t>(in.tellg()), serialized_size(*m.net));
    in.close();
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
    Rng rng(5);
    SkyNetModel m = build_skynet({SkyNetVariant::kA, nn::Act::kReLU, 2, 0.2f}, rng);
    EXPECT_THROW(load_weights(*m.net, "/nonexistent/dir/weights.bin"),
                 std::runtime_error);
}

TEST(Serialize, ArchitectureMismatchThrows) {
    Rng rng(6);
    SkyNetModel a = build_skynet({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.2f}, rng);
    const std::string path = temp_path("mismatch");
    save_weights(*a.net, path);
    SkyNetModel c = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.2f}, rng);
    EXPECT_THROW(load_weights(*c.net, path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileThrows) {
    Rng rng(7);
    SkyNetModel a = build_skynet({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.2f}, rng);
    const std::string path = temp_path("trunc");
    save_weights(*a.net, path);
    // Truncate to half.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto full = in.tellg();
    in.seekg(0);
    std::vector<char> buf(static_cast<std::size_t>(full) / 2);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    out.close();
    EXPECT_THROW(load_weights(*a.net, path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Serialize, BadMagicThrows) {
    const std::string path = temp_path("magic");
    std::ofstream out(path, std::ios::binary);
    out << "NOPE garbage";
    out.close();
    Rng rng(8);
    SkyNetModel m = build_skynet({SkyNetVariant::kA, nn::Act::kReLU, 2, 0.2f}, rng);
    EXPECT_THROW(load_weights(*m.net, path), std::runtime_error);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace sky::io
