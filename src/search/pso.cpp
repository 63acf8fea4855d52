#include "search/pso.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "detect/yolo_head.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "train/trainer.hpp"

namespace sky::search {

PsoSearch::PsoSearch(std::vector<BundleSpec> groups, PsoConfig cfg,
                     data::DetectionDataset& data, const hwsim::GpuModel& gpu,
                     const hwsim::FpgaModel& fpga)
    : groups_(std::move(groups)), cfg_(cfg), data_(data), gpu_(gpu), fpga_(fpga),
      rng_(cfg.seed) {}

nn::ModulePtr PsoSearch::build_particle_net(const Particle& p, nn::Act act, Rng& rng) {
    auto net = std::make_unique<nn::Graph>();
    int in_ch = 3;
    for (std::size_t i = 0; i < p.channels.size(); ++i) {
        net->add(instantiate(p.bundle, in_ch, p.channels[i], act, rng));
        in_ch = p.channels[i];
        if (std::find(p.pool_after.begin(), p.pool_after.end(), static_cast<int>(i)) !=
            p.pool_after.end())
            net->emplace<nn::MaxPool2>();
    }
    net->emplace<nn::PWConv1>(in_ch, 10, /*bias=*/true, rng);
    return net;
}

double PsoSearch::fitness(double accuracy, double gpu_ms, double fpga_ms) const {
    // Eq. 1 with alpha < 0: deviations from the per-platform latency
    // requirement are penalised, FPGA more strongly than GPU.
    const double penalty = cfg_.beta_fpga * std::abs(fpga_ms - cfg_.target_fpga_ms) +
                           cfg_.beta_gpu * std::abs(gpu_ms - cfg_.target_gpu_ms);
    return accuracy + cfg_.alpha * penalty * 0.01;
}

void PsoSearch::evaluate(Particle& p, int iteration) {
    Rng rng(cfg_.seed ^ (static_cast<std::uint64_t>(iteration) << 32) ^
            static_cast<std::uint64_t>(p.channels.empty() ? 0 : p.channels[0]));
    nn::ModulePtr net = build_particle_net(p, nn::Act::kReLU, rng);

    // Latency estimation on both targets (§4.2 "Latency estimation").
    const Shape probe{1, 3, data_.config().height, data_.config().width};
    p.gpu_latency_ms = gpu_.estimate(*net, probe).latency_ms;
    p.fpga_latency_ms = fpga_.estimate(*net, probe).latency_ms;

    // Fast training, with the budget growing over iterations (e_itr).
    train::DetectTrainConfig tc;
    tc.steps = cfg_.base_train_steps * (iteration + 1);
    tc.batch = cfg_.train_batch;
    tc.multi_scale = false;
    tc.val_images = cfg_.val_images;
    const detect::YoloHead head;
    Rng train_rng(cfg_.seed ^ 0x99);
    p.accuracy = train_detector(*net, head, data_, tc, train_rng).val_iou;
    p.fitness = fitness(p.accuracy, p.gpu_latency_ms, p.fpga_latency_ms);
}

void PsoSearch::evolve_toward(Particle& p, const Particle& best) {
    // dim1: move each channel count a random fraction toward the group best.
    for (std::size_t i = 0; i < p.channels.size(); ++i) {
        const int diff = best.channels[i] - p.channels[i];
        const double frac = rng_.uniform();
        int c = p.channels[i] + static_cast<int>(std::lround(frac * diff));
        // Small mutation keeps diversity.
        if (rng_.chance(0.3)) c += rng_.uniform_int(-8, 8);
        c = std::clamp((c + 3) / 4 * 4, cfg_.min_channels, cfg_.max_channels);
        p.channels[i] = c;
    }
    // dim2: copy a random subset of pooling positions from the best.
    for (std::size_t i = 0; i < p.pool_after.size(); ++i) {
        if (rng_.chance(0.5)) p.pool_after[i] = best.pool_after[i];
        if (rng_.chance(0.2))
            p.pool_after[i] = rng_.uniform_int(0, cfg_.stack_len - 1);
    }
    std::sort(p.pool_after.begin(), p.pool_after.end());
    p.pool_after.erase(std::unique(p.pool_after.begin(), p.pool_after.end()),
                       p.pool_after.end());
    while (static_cast<int>(p.pool_after.size()) < cfg_.num_pools) {
        const int pos = rng_.uniform_int(0, cfg_.stack_len - 1);
        if (std::find(p.pool_after.begin(), p.pool_after.end(), pos) == p.pool_after.end())
            p.pool_after.push_back(pos);
    }
    std::sort(p.pool_after.begin(), p.pool_after.end());
}

PsoResult PsoSearch::run() {
    // Population generation.
    std::vector<std::vector<Particle>> swarm(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        for (int j = 0; j < cfg_.particles_per_group; ++j) {
            Particle p;
            p.bundle = groups_[g];
            for (int s = 0; s < cfg_.stack_len; ++s) {
                const int lo = cfg_.min_channels;
                const int hi = cfg_.max_channels;
                p.channels.push_back(
                    std::clamp((rng_.uniform_int(lo, hi) + 3) / 4 * 4, lo, hi));
            }
            while (static_cast<int>(p.pool_after.size()) < cfg_.num_pools) {
                const int pos = rng_.uniform_int(0, cfg_.stack_len - 1);
                if (std::find(p.pool_after.begin(), p.pool_after.end(), pos) ==
                    p.pool_after.end())
                    p.pool_after.push_back(pos);
            }
            std::sort(p.pool_after.begin(), p.pool_after.end());
            swarm[g].push_back(std::move(p));
        }
    }

    PsoResult result;
    result.group_best.resize(groups_.size());
    for (int itr = 0; itr < cfg_.iterations; ++itr) {
        // Fast training + performance estimation for all particles.
        for (auto& group : swarm)
            for (Particle& p : group) evaluate(p, itr);

        // Group bests and global best.
        for (std::size_t g = 0; g < swarm.size(); ++g) {
            const Particle* best = &swarm[g][0];
            for (const Particle& p : swarm[g])
                if (p.fitness > best->fitness) best = &p;
            if (best->fitness > result.group_best[g].fitness)
                result.group_best[g] = *best;
            if (best->fitness > result.global_best.fitness) result.global_best = *best;
        }
        result.best_fitness_history.push_back(result.global_best.fitness);
        obs::resolve(cfg_.log, cfg_.verbose)
            .infof("PSO iter %d: best fitness %.4f (acc %.3f, fpga %.2f ms)", itr,
                   result.global_best.fitness, result.global_best.accuracy,
                   result.global_best.fpga_latency_ms);

        // Velocity calculation and particle update (within each group).
        if (itr + 1 < cfg_.iterations)
            for (std::size_t g = 0; g < swarm.size(); ++g)
                for (Particle& p : swarm[g]) evolve_toward(p, result.group_best[g]);
    }
    return result;
}

}  // namespace sky::search
