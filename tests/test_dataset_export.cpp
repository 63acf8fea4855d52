// Dataset materialisation: PPM round trips, CSV label round trips, error
// paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "io/dataset_export.hpp"

namespace sky::io {
namespace {

std::string tmpdir() { return ::testing::TempDir(); }

/// A directory of the test's own: ctest runs tests as parallel processes,
/// and every export writes the same labels.csv and image names.
std::string export_dir(const std::string& name) {
    const std::string dir = tmpdir() + name;
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(Ppm, RoundTripWithin8BitPrecision) {
    Rng rng(1);
    Tensor img({1, 3, 12, 20});
    img.rand_uniform(rng, 0.0f, 1.0f);
    const std::string path = tmpdir() + "rt.ppm";
    write_ppm(img, path);
    const Tensor back = read_ppm(path);
    ASSERT_EQ(back.shape(), img.shape());
    for (std::int64_t i = 0; i < img.size(); ++i)
        EXPECT_NEAR(back[i], img[i], 1.0f / 255.0f + 1e-6f);
    std::remove(path.c_str());
}

TEST(Ppm, ClampsOutOfRangeValues) {
    Tensor img({1, 3, 2, 2});
    img.fill(2.5f);
    img[0] = -1.0f;
    const std::string path = tmpdir() + "clamp.ppm";
    write_ppm(img, path);
    const Tensor back = read_ppm(path);
    EXPECT_FLOAT_EQ(back[0], 0.0f);
    EXPECT_FLOAT_EQ(back[1], 1.0f);
    std::remove(path.c_str());
}

TEST(Ppm, ReadRejectsGarbage) {
    const std::string path = tmpdir() + "garbage.ppm";
    std::ofstream out(path);
    out << "not a ppm";
    out.close();
    EXPECT_THROW((void)read_ppm(path), std::runtime_error);
    EXPECT_THROW((void)read_ppm("/no/such/file.ppm"), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Export, WritesImagesAndLabels) {
    data::DetectionDataset ds({24, 48, 1, false, 5});
    const std::string dir = export_dir("export_writes");
    const ExportStats stats = export_detection_dataset(ds, 5, dir);
    EXPECT_EQ(stats.images, 5);
    EXPECT_EQ(stats.boxes, 5);  // one target per image

    const auto labels = read_labels(dir);
    ASSERT_EQ(labels.size(), 5u);
    for (const auto& li : labels) {
        ASSERT_EQ(li.boxes.size(), 1u);
        const Tensor img = read_ppm(dir + "/" + li.file);
        EXPECT_EQ(img.shape(), (Shape{1, 3, 24, 48}));
        EXPECT_GT(li.boxes[0].w, 0.0f);
        std::remove((dir + "/" + li.file).c_str());
    }
    std::remove((dir + "/labels.csv").c_str());
}

TEST(Export, LabelsMatchGeneratedBoxes) {
    // Exporting with a fixed seed then regenerating with the same seed must
    // produce the same boxes (the dataset stream is deterministic).
    const std::string dir = export_dir("export_labels_match");
    data::DetectionDataset ds1({24, 48, 0, false, 9});
    (void)export_detection_dataset(ds1, 3, dir);
    const auto labels = read_labels(dir);
    data::DetectionDataset ds2({24, 48, 0, false, 9});
    for (int i = 0; i < 3; ++i) {
        const data::DetectionBatch b = ds2.batch(1);
        EXPECT_NEAR(labels[static_cast<std::size_t>(i)].boxes[0].cx, b.boxes[0].cx, 1e-5f);
        EXPECT_NEAR(labels[static_cast<std::size_t>(i)].boxes[0].h, b.boxes[0].h, 1e-5f);
        std::remove((dir + "/" + labels[static_cast<std::size_t>(i)].file).c_str());
    }
    std::remove((dir + "/labels.csv").c_str());
}

}  // namespace
}  // namespace sky::io
