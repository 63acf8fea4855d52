#include "data/augment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace sky::data {
namespace {

/// Refuse an empty source or target before any plane is indexed.
void check_resize(const char* who, const Shape& s, int out_h, int out_w) {
    if (s.n <= 0 || s.c <= 0 || s.h <= 0 || s.w <= 0 || out_h <= 0 || out_w <= 0)
        throw std::invalid_argument(std::string(who) + ": cannot resize " + s.str() +
                                    " to " + std::to_string(out_h) + "x" +
                                    std::to_string(out_w));
}

}  // namespace

Tensor resize_bilinear(const Tensor& img, int out_h, int out_w) {
    const Shape s = img.shape();
    check_resize("resize_bilinear", s, out_h, out_w);
    Tensor out({s.n, s.c, out_h, out_w});
    const float sy = static_cast<float>(s.h) / static_cast<float>(out_h);
    const float sx = static_cast<float>(s.w) / static_cast<float>(out_w);
    for (int n = 0; n < s.n; ++n) {
        for (int c = 0; c < s.c; ++c) {
            const float* src = img.plane(n, c);
            float* dst = out.plane(n, c);
            for (int y = 0; y < out_h; ++y) {
                const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
                const int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0, s.h - 1);
                const int y1 = std::min(y0 + 1, s.h - 1);
                const float wy = std::clamp(fy - static_cast<float>(y0), 0.0f, 1.0f);
                for (int x = 0; x < out_w; ++x) {
                    const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
                    const int x0 = std::clamp(static_cast<int>(std::floor(fx)), 0, s.w - 1);
                    const int x1 = std::min(x0 + 1, s.w - 1);
                    const float wx = std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
                    const float v00 = src[static_cast<std::int64_t>(y0) * s.w + x0];
                    const float v01 = src[static_cast<std::int64_t>(y0) * s.w + x1];
                    const float v10 = src[static_cast<std::int64_t>(y1) * s.w + x0];
                    const float v11 = src[static_cast<std::int64_t>(y1) * s.w + x1];
                    dst[static_cast<std::int64_t>(y) * out_w + x] =
                        (1 - wy) * ((1 - wx) * v00 + wx * v01) +
                        wy * ((1 - wx) * v10 + wx * v11);
                }
            }
        }
    }
    return out;
}

Tensor resize_area(const Tensor& img, int out_h, int out_w) {
    const Shape s = img.shape();
    check_resize("resize_area", s, out_h, out_w);
    Tensor out({s.n, s.c, out_h, out_w});
    const double sy = static_cast<double>(s.h) / out_h;
    const double sx = static_cast<double>(s.w) / out_w;
    for (int n = 0; n < s.n; ++n) {
        for (int c = 0; c < s.c; ++c) {
            const float* src = img.plane(n, c);
            float* dst = out.plane(n, c);
            for (int y = 0; y < out_h; ++y) {
                const double fy0 = y * sy, fy1 = (y + 1) * sy;
                const int y0 = static_cast<int>(fy0);
                const int y1 = std::min(static_cast<int>(std::ceil(fy1)), s.h);
                for (int x = 0; x < out_w; ++x) {
                    const double fx0 = x * sx, fx1 = (x + 1) * sx;
                    const int x0 = static_cast<int>(fx0);
                    const int x1 = std::min(static_cast<int>(std::ceil(fx1)), s.w);
                    double acc = 0.0, area = 0.0;
                    for (int yy = y0; yy < y1; ++yy) {
                        // Row coverage: 1 inside the footprint, fractional at
                        // the first/last row it touches.
                        const double wy = std::min<double>(yy + 1, fy1) -
                                          std::max<double>(yy, fy0);
                        for (int xx = x0; xx < x1; ++xx) {
                            const double wx = std::min<double>(xx + 1, fx1) -
                                              std::max<double>(xx, fx0);
                            acc += wy * wx * src[static_cast<std::int64_t>(yy) * s.w + xx];
                            area += wy * wx;
                        }
                    }
                    dst[static_cast<std::int64_t>(y) * out_w + x] =
                        static_cast<float>(acc / area);
                }
            }
        }
    }
    return out;
}

Tensor crop_resize(const Tensor& img, float x1, float y1, float x2, float y2, int out_h,
                   int out_w) {
    const Shape s = img.shape();
    Tensor out({s.n, s.c, out_h, out_w});
    // Output row or column o samples source indices i0 and i0 + 1 with
    // weights 1 - w and w, and only when its coordinate passes the frame
    // test (`inside`); a source index outside the frame samples 0.  Each tap
    // is computed once per call, not once per pixel and plane, by the same
    // float operations in the same order, so every output is bitwise the
    // per-pixel loop's.
    struct Tap {
        bool inside = false;
        int i0 = 0;
        float w0 = 0.0f, w = 0.0f;      ///< 1 - w, w
        bool ok0 = false, ok1 = false;  ///< i0, i0 + 1 inside the frame
    };
    const auto taps = [](int count, float lo, float hi, int size) {
        std::vector<Tap> t(static_cast<std::size_t>(count));
        for (int o = 0; o < count; ++o) {
            const float u = lo + (hi - lo) * (static_cast<float>(o) + 0.5f) /
                                     static_cast<float>(count);
            const float f = u * static_cast<float>(size) - 0.5f;
            Tap& tap = t[static_cast<std::size_t>(o)];
            tap.inside = f >= -1.0f && f <= static_cast<float>(size);
            if (!tap.inside) continue;
            tap.i0 = static_cast<int>(std::floor(f));
            tap.w = f - static_cast<float>(tap.i0);
            tap.w0 = 1 - tap.w;
            tap.ok0 = tap.i0 >= 0 && tap.i0 < size;
            tap.ok1 = tap.i0 + 1 < size;  // i0 >= -1
        }
        return t;
    };
    const std::vector<Tap> rows = taps(out_h, y1, y2, s.h);
    const std::vector<Tap> cols = taps(out_w, x1, x2, s.w);
    for (int n = 0; n < s.n; ++n) {
        for (int c = 0; c < s.c; ++c) {
            const float* src = img.plane(n, c);
            for (int y = 0; y < out_h; ++y) {
                const Tap& ty = rows[static_cast<std::size_t>(y)];
                float* drow = out.plane(n, c) + static_cast<std::int64_t>(y) * out_w;
                if (!ty.inside) {
                    std::fill_n(drow, out_w, 0.0f);
                    continue;
                }
                const float* r0 = ty.ok0 ? src + static_cast<std::int64_t>(ty.i0) * s.w : nullptr;
                const float* r1 =
                    ty.ok1 ? src + static_cast<std::int64_t>(ty.i0 + 1) * s.w : nullptr;
                for (int x = 0; x < out_w; ++x) {
                    const Tap& tx = cols[static_cast<std::size_t>(x)];
                    if (!tx.inside) {
                        drow[x] = 0.0f;
                        continue;
                    }
                    const auto sample = [&tx](const float* row, int k) {
                        return row != nullptr && (k == 0 ? tx.ok0 : tx.ok1) ? row[tx.i0 + k]
                                                                            : 0.0f;
                    };
                    drow[x] = ty.w0 * (tx.w0 * sample(r0, 0) + tx.w * sample(r0, 1)) +
                              ty.w * (tx.w0 * sample(r1, 0) + tx.w * sample(r1, 1));
                }
            }
        }
    }
    return out;
}

Tensor hflip(const Tensor& img) {
    const Shape s = img.shape();
    Tensor out(s);
    for (int n = 0; n < s.n; ++n) {
        for (int c = 0; c < s.c; ++c) {
            const float* src = img.plane(n, c);
            float* dst = out.plane(n, c);
            for (int y = 0; y < s.h; ++y)
                for (int x = 0; x < s.w; ++x)
                    dst[static_cast<std::int64_t>(y) * s.w + x] =
                        src[static_cast<std::int64_t>(y) * s.w + (s.w - 1 - x)];
        }
    }
    return out;
}

detect::BBox flip_box(const detect::BBox& b) { return {1.0f - b.cx, b.cy, b.w, b.h}; }

Tensor photometric(const Tensor& img, Rng& rng, float contrast, float brightness) {
    const Shape s = img.shape();
    Tensor out(s);
    const float shift = static_cast<float>(rng.uniform(-brightness, brightness));
    for (int n = 0; n < s.n; ++n) {
        for (int c = 0; c < s.c; ++c) {
            const float gain = static_cast<float>(rng.uniform(1.0 - contrast, 1.0 + contrast));
            const float* src = img.plane(n, c);
            float* dst = out.plane(n, c);
            const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
            for (std::int64_t i = 0; i < plane; ++i)
                dst[i] = std::clamp(src[i] * gain + shift, 0.0f, 1.0f);
        }
    }
    return out;
}

Tensor jitter_crop(const Tensor& img, detect::BBox& box, Rng& rng, float max_margin) {
    // Crop window in normalised coords that still contains the box.
    const float bx1 = box.x1(), by1 = box.y1(), bx2 = box.x2(), by2 = box.y2();
    const float cx1 = static_cast<float>(rng.uniform(0.0, std::min<double>(max_margin, std::max(0.0f, bx1))));
    const float cy1 = static_cast<float>(rng.uniform(0.0, std::min<double>(max_margin, std::max(0.0f, by1))));
    const float cx2 = 1.0f - static_cast<float>(rng.uniform(
                                 0.0, std::min<double>(max_margin, std::max(0.0f, 1.0f - bx2))));
    const float cy2 = 1.0f - static_cast<float>(rng.uniform(
                                 0.0, std::min<double>(max_margin, std::max(0.0f, 1.0f - by2))));
    const Shape s = img.shape();
    Tensor out = crop_resize(img, cx1, cy1, cx2, cy2, s.h, s.w);
    const float sw = cx2 - cx1, sh = cy2 - cy1;
    box = detect::BBox{(box.cx - cx1) / sw, (box.cy - cy1) / sh, box.w / sw, box.h / sh};
    return out;
}

}  // namespace sky::data
