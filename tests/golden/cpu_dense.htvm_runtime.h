// htvm_runtime.h — generated by the HTVM reproduction.
//
// Call surface of the DIANA deployment runtime. The implementations below
// are portable stubs: functional on the host for the CPU helpers, no-ops
// for the accelerator drivers. Porting to a board = providing the real
// driver and DMA implementations for these symbols.
#ifndef HTVM_RUNTIME_H_
#define HTVM_RUNTIME_H_

#include <stdint.h>
#include <string.h>

// ---------------------------------------------------------------------------
// DMA: L2 <-> L1 transfers. 2D transfers copy `rows` segments of
// `row_bytes`, advancing the L2 pointer by `l2_stride` per row.
// ---------------------------------------------------------------------------
static inline void htvm_dma_1d(void* dst, const void* src, uint32_t bytes) {
  memcpy(dst, src, bytes);
}

static inline void htvm_dma_2d(void* dst, const void* src, uint32_t rows,
                               uint32_t row_bytes, uint32_t dst_stride,
                               uint32_t src_stride) {
  for (uint32_t r = 0; r < rows; ++r) {
    memcpy((uint8_t*)dst + (size_t)r * dst_stride,
           (const uint8_t*)src + (size_t)r * src_stride, row_bytes);
  }
}

// ---------------------------------------------------------------------------
// Accelerator drivers (coarse-grained instructions, Sec. III-C (3)).
// Tile geometry mirrors dory::TileStep. Stub bodies compute nothing: on
// hardware these program CSRs, trigger the array and wait for completion.
// ---------------------------------------------------------------------------
typedef struct {
  uint16_t k_t, c_t, oy_t, ox_t, iy_t, ix_t;
  uint8_t kh, kw, sy, sx;
  uint8_t pad_t, pad_l;      // padding rows/columns atop/left of the window
  uint8_t first_c, last_c;   // partial-sum start / requant-and-store
  int32_t shift;
  uint8_t relu;
} htvm_accel_tile_t;

static inline void diana_digital_conv2d(const int8_t* l1_in,
                                        const int8_t* l1_w,
                                        const int32_t* l1_bias,
                                        int8_t* l1_out, int32_t* l1_psum,
                                        const htvm_accel_tile_t* t) {
  (void)l1_in; (void)l1_w; (void)l1_bias; (void)l1_out; (void)l1_psum;
  (void)t;
}

static inline void diana_digital_dwconv2d(const int8_t* l1_in,
                                          const int8_t* l1_w,
                                          const int32_t* l1_bias,
                                          int8_t* l1_out,
                                          const htvm_accel_tile_t* t) {
  (void)l1_in; (void)l1_w; (void)l1_bias; (void)l1_out; (void)t;
}

static inline void diana_digital_dense(const int8_t* l1_in, const int8_t* l1_w,
                                       const int32_t* l1_bias, int8_t* l1_out,
                                       int32_t* l1_psum,
                                       const htvm_accel_tile_t* t) {
  (void)l1_in; (void)l1_w; (void)l1_bias; (void)l1_out; (void)l1_psum;
  (void)t;
}

static inline void diana_digital_matmul(const int8_t* l1_in,
                                        const int8_t* l1_w,
                                        const int32_t* l1_bias,
                                        int8_t* l1_out, int32_t* l1_psum,
                                        const htvm_accel_tile_t* t) {
  (void)l1_in; (void)l1_w; (void)l1_bias; (void)l1_out; (void)l1_psum;
  (void)t;
}

static inline void diana_digital_add(const int8_t* l1_a, const int8_t* l1_b,
                                     int8_t* l1_out,
                                     const htvm_accel_tile_t* t) {
  (void)l1_a; (void)l1_b; (void)l1_out; (void)t;
}

// Analog macro: weights loaded once per layer, then per-tile activation.
static inline void diana_analog_load_weights(const uint8_t* l2_packed_ternary,
                                             uint32_t rows, uint32_t cols) {
  (void)l2_packed_ternary; (void)rows; (void)cols;
}

static inline void diana_analog_conv2d(const int8_t* l1_in,
                                       const int32_t* l1_bias, int8_t* l1_out,
                                       const htvm_accel_tile_t* t) {
  (void)l1_in; (void)l1_bias; (void)l1_out; (void)t;
}

// ---------------------------------------------------------------------------
// CPU helper kernels for ops TVM lowers generically (functional on host).
// ---------------------------------------------------------------------------
static inline int8_t htvm_requant(int32_t acc, int32_t shift, int relu) {
  // Round half up without the overflowing acc + 2^(shift-1).
  if (shift > 0) acc = (acc >> shift) + ((acc >> (shift - 1)) & 1);
  const int32_t lo = relu ? 0 : -128;
  if (acc < lo) acc = lo;
  if (acc > 127) acc = 127;
  return (int8_t)acc;
}

static inline void htvm_avg_pool2d(const int8_t* in, int8_t* out, int c,
                                   int ih, int iw, int ph, int pw, int sy,
                                   int sx, int pt, int pl, int oh, int ow) {
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        int32_t sum = 0, cnt = 0;
        for (int fy = 0; fy < ph; ++fy) {
          const int iy = oy * sy + fy - pt;
          if (iy < 0 || iy >= ih) continue;
          for (int fx = 0; fx < pw; ++fx) {
            const int ix = ox * sx + fx - pl;
            if (ix < 0 || ix >= iw) continue;
            sum += in[(ch * ih + iy) * iw + ix];
            ++cnt;
          }
        }
        int32_t avg = 0;
        if (cnt) avg = sum >= 0 ? (sum + cnt / 2) / cnt : -((-sum + cnt / 2) / cnt);
        out[(ch * oh + oy) * ow + ox] = (int8_t)avg;
      }
    }
  }
}

static inline void htvm_max_pool2d(const int8_t* in, int8_t* out, int c,
                                   int ih, int iw, int ph, int pw, int sy,
                                   int sx, int pt, int pl, int oh, int ow) {
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        int8_t best = -128;
        for (int fy = 0; fy < ph; ++fy) {
          const int iy = oy * sy + fy - pt;
          if (iy < 0 || iy >= ih) continue;
          for (int fx = 0; fx < pw; ++fx) {
            const int ix = ox * sx + fx - pl;
            if (ix < 0 || ix >= iw) continue;
            const int8_t v = in[(ch * ih + iy) * iw + ix];
            if (v > best) best = v;
          }
        }
        out[(ch * oh + oy) * ow + ox] = best;
      }
    }
  }
}

static inline void htvm_global_avg_pool2d(const int8_t* in, int8_t* out,
                                          int c, int hw) {
  for (int ch = 0; ch < c; ++ch) {
    int32_t sum = 0;
    for (int i = 0; i < hw; ++i) sum += in[ch * hw + i];
    out[ch] = (int8_t)(sum >= 0 ? (sum + hw / 2) / hw : -((-sum + hw / 2) / hw));
  }
}

// 2^(-e/16) in Q16 for the row-max distance e >= 0 (nn::Softmax's table).
static inline int32_t htvm_softmax_q(int32_t e) {
  static const int32_t kFrac[16] = {65536, 68438, 71468,  74632,  77936,
                                    81386, 84990, 88752,  92682,  96785,
                                    101070, 105545, 110218, 115098, 120194,
                                    125515};
  const int32_t ip = e / 16, fp = e % 16;
  return ip >= 32 ? 0 : (kFrac[15 - fp] >> (ip + (fp ? 1 : 0)));
}

// Each q is recomputed in the second pass, so no row buffer bounds cols.
static inline void htvm_softmax_int8(const int8_t* in, int8_t* out, int rows,
                                     int cols) {
  for (int r = 0; r < rows; ++r) {
    int32_t maxv = -128;
    for (int cidx = 0; cidx < cols; ++cidx) {
      if (in[r * cols + cidx] > maxv) maxv = in[r * cols + cidx];
    }
    int64_t total = 0;
    for (int cidx = 0; cidx < cols; ++cidx) {
      total += htvm_softmax_q(maxv - in[r * cols + cidx]);
    }
    for (int cidx = 0; cidx < cols; ++cidx) {
      const int32_t q = htvm_softmax_q(maxv - in[r * cols + cidx]);
      int32_t s = total == 0 ? 0 : (int32_t)(((int64_t)q * 127 + total / 2) / total);
      if (s < 0) s = 0;
      if (s > 127) s = 127;
      out[r * cols + cidx] = (int8_t)s;
    }
  }
}

// Floor integer sqrt; identical to nn::ISqrt64 so layernorm is bit-exact
// against the reference interpreter.
static inline int64_t htvm_isqrt64(int64_t n) {
  int64_t x = n, y = (n + 1) / 2;
  if (n < 2) return n;
  while (y < x) {
    x = y;
    y = (x + n / x) / 2;
  }
  return x;
}

// Integer-only layernorm over the last axis (see nn::LayerNorm):
//   out = round(16 * (D*x - sum) / sqrt(D*sumsq - sum^2 + 1)), clamped.
static inline void htvm_layernorm_int8(const int8_t* in, int8_t* out,
                                       int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    int64_t sum = 0, sumsq = 0;
    for (int c = 0; c < cols; ++c) {
      const int64_t v = in[r * cols + c];
      sum += v;
      sumsq += v * v;
    }
    const int64_t denom = htvm_isqrt64(cols * sumsq - sum * sum + 1);
    for (int c = 0; c < cols; ++c) {
      const int64_t p = 16 * (cols * (int64_t)in[r * cols + c] - sum);
      int64_t q = p >= 0 ? (p + denom / 2) / denom : -((-p + denom / 2) / denom);
      if (q < -128) q = -128;
      if (q > 127) q = 127;
      out[r * cols + c] = (int8_t)q;
    }
  }
}

#endif  // HTVM_RUNTIME_H_
