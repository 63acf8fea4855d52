// Image-space operations on CHW float tensors: bilinear resize, crop,
// horizontal flip, photometric distortion.  These implement the paper's
// training augmentations ("distort, jitter, crop, and resize", §6.1) and the
// exemplar/search-region cropping the Siamese trackers need.
#pragma once

#include "detect/bbox.hpp"
#include "tensor/tensor.hpp"

namespace sky::data {

/// Bilinear resize of a single-item CHW tensor (n must be 1).  Both resizes
/// throw std::invalid_argument on an empty source or target.
[[nodiscard]] Tensor resize_bilinear(const Tensor& img, int out_h, int out_w);

/// Area (box-filter) resize: every output pixel is the fractionally-weighted
/// mean of the source pixels its footprint covers.  The correct decimation
/// filter for downscales past 2x, where bilinear's fixed 4 taps skip source
/// rows/columns entirely and alias; for upscales it degenerates to nearest.
[[nodiscard]] Tensor resize_area(const Tensor& img, int out_h, int out_w);

/// Crop region given in normalised coordinates [x1,y1,x2,y2] (may extend
/// outside the image; outside pixels are zero-padded), then resize.
[[nodiscard]] Tensor crop_resize(const Tensor& img, float x1, float y1, float x2, float y2,
                                 int out_h, int out_w);

/// Horizontal flip (in image space); flip_box mirrors a normalised box.
[[nodiscard]] Tensor hflip(const Tensor& img);
[[nodiscard]] detect::BBox flip_box(const detect::BBox& b);

/// Photometric distortion: per-channel gain in [1-c, 1+c], global brightness
/// shift in [-b, b], clamped to [0, 1].
[[nodiscard]] Tensor photometric(const Tensor& img, Rng& rng, float contrast = 0.25f,
                                 float brightness = 0.15f);

/// Random crop that keeps `box` fully inside; returns the cropped image and
/// rewrites `box` into the crop's coordinates.  `max_margin` bounds how much
/// of each side may be cut (fraction of the image).
[[nodiscard]] Tensor jitter_crop(const Tensor& img, detect::BBox& box, Rng& rng,
                                 float max_margin = 0.15f);

}  // namespace sky::data
