// Weight serialization: round trips, size accounting, and the failure modes
// (wrong file, wrong architecture, truncated payload).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "deploy/fold_bn.hpp"
#include "io/serialize.hpp"
#include "nn/batchnorm.hpp"
#include "skynet/skynet_model.hpp"

namespace sky::io {
namespace {

std::string temp_path(const char* tag) {
    return std::string(::testing::TempDir()) + "skynet_io_" + tag + ".bin";
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
