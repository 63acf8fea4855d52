// Model inspection and deployment tooling: print the per-layer summary with
// roofline classification for TX2 and Ultra96, fold the batch norms for
// deployment (verifying the outputs are unchanged), and round-trip the
// deployed weights through the serializer: save them, load them into a
// freshly built and folded model, and require the same output bit for bit.
// Exits non-zero when the reloaded model's output deviates.
//
//   ./build/examples/inspect_model [width_mult] [weights_out]
//
// weights_out defaults to skynet_deployed.bin in the system temp directory.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "deploy/fold_bn.hpp"
#include "deploy/report.hpp"
#include "io/serialize.hpp"
#include "skynet/skynet_model.hpp"

int main(int argc, char** argv) {
    using namespace sky;
    const float width = argc > 1 ? static_cast<float>(std::atof(argv[1])) : 1.0f;
    const std::string path =
        argc > 2 ? argv[2]
                 : (std::filesystem::temp_directory_path() / "skynet_deployed.bin").string();
    const SkyNetConfig config{SkyNetVariant::kC, nn::Act::kReLU6, 2, width};

    Rng rng(42);
    SkyNetModel model = build_skynet(config, rng);
    const Shape in{1, 3, 160, 320};

    // Per-layer summary with roofline classification on the TX2 profile.
    const deploy::ModelSummary summary = deploy::summarize(*model.net, in, hwsim::tx2());
    deploy::print_summary(summary, "SkyNet C - ReLU6 (TX2 roofline)");

    // Warm the BN statistics with a few random batches, then fold.
    model.net->set_training(true);
    Rng wr(7);
    for (int i = 0; i < 3; ++i) {
        Tensor x({2, 3, 32, 64});
        x.rand_uniform(wr, 0.0f, 1.0f);
        (void)model.net->forward(x);
    }
    model.net->set_training(false);
    Tensor probe({1, 3, 32, 64});
    probe.rand_uniform(wr, 0.0f, 1.0f);
    const Tensor before = model.net->forward(probe);

    const int folded = deploy::fold_graph_bn(*model.net);
    const Tensor after = model.net->forward(probe);
    float max_err = 0.0f;
    for (std::int64_t i = 0; i < before.size(); ++i)
        max_err = std::max(max_err, std::abs(before[i] - after[i]));
    std::printf("\nfolded %d batch-norm layers; max output deviation %.2e\n", folded,
                max_err);

    // Round-trip the deployed weights: a fresh model folds to its own
    // (all-zero) shifts, so every folded bias must come from the file.
    io::save_weights(*model.net, path);
    std::printf("saved deployed weights to %s (%lld bytes)\n", path.c_str(),
                static_cast<long long>(io::serialized_size(*model.net)));
    Rng fresh_rng(43);
    SkyNetModel reloaded = build_skynet(config, fresh_rng);
    deploy::fold_graph_bn(*reloaded.net);
    io::load_weights(*reloaded.net, path);
    reloaded.net->set_training(false);
    const Tensor again = reloaded.net->forward(probe);
    if (!(again.shape() == after.shape())) {
        std::fprintf(stderr, "inspect_model: the reloaded model's output has shape %s\n",
                     again.shape().str().c_str());
        return 1;
    }
    float max_dev = 0.0f;
    std::int64_t differ = 0;
    for (std::int64_t i = 0; i < after.size(); ++i) {
        max_dev = std::max(max_dev, std::abs(after[i] - again[i]));
        differ += std::memcmp(after.data() + i, again.data() + i, sizeof(float)) != 0;
    }
    std::printf("reloaded into a fresh folded model: max output deviation %.2e "
                "(%lld of %lld values differ)\n",
                max_dev, static_cast<long long>(differ), static_cast<long long>(after.size()));
    return differ == 0 ? 0 : 1;
}
