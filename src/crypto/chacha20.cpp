#include "crypto/chacha20.h"

#include <bit>
#include <cassert>
#include <cstring>

#include "common/endian.h"

// The eight-block core is written once in GCC/Clang vector extensions and
// built twice, for AVX2 and for baseline x86-64. It needs
// __builtin_shufflevector (GCC 12+, Clang); other builds run only the
// scalar core.
#if defined(__x86_64__) && defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector)
#define RECIPE_CHACHA20_VECTOR 1
#endif
#endif

namespace recipe::crypto {

namespace {

// One vector step makes eight consecutive keystream blocks.
constexpr std::size_t kStepBlocks = 8;
constexpr std::size_t kStepBytes = kStepBlocks * 64;

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

void chacha20_block(const std::uint32_t state[16], std::uint8_t out[64]) {
  std::uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) store_le32(out + 4 * i, x[i] + state[i]);
}

// XORs the keystream of `steps` eight-block steps, starting at block counter
// state[12], into data.
using XorStepsFn = void (*)(const std::uint32_t* state, std::uint8_t* data,
                            std::size_t steps);

#ifdef RECIPE_CHACHA20_VECTOR

// Word i of eight blocks side by side: lane j belongs to block counter + j
// (Goll & Gueron, "Vectorization on ChaCha Stream Cipher", ITNG 2014). x86
// is little-endian, so a lane's bytes in memory are its keystream bytes.
// Vectors are passed only by reference: passing a 32-byte vector by value in
// code built without AVX changes the ABI (-Wpsabi).
typedef std::uint32_t U32x8 __attribute__((vector_size(32)));

[[gnu::always_inline]] inline void quarter_round8(U32x8& a, U32x8& b,
                                                  U32x8& c, U32x8& d) {
  a += b; d ^= a; d = (d << 16) | (d >> 16);
  c += d; b ^= c; b = (b << 12) | (b >> 20);
  a += b; d ^= a; d = (d << 8) | (d >> 24);
  c += d; b ^= c; b = (b << 7) | (b >> 25);
}

// XORs k into the 32 bytes at p, which may have any alignment.
[[gnu::always_inline]] inline void xor32(std::uint8_t* p, const U32x8& k) {
  U32x8 d;
  std::memcpy(&d, p, sizeof(d));
  d ^= k;
  std::memcpy(p, &d, sizeof(d));
}

// x[0..7] hold eight consecutive words of the eight blocks. An 8x8 transpose
// turns them into one 32-byte run per block, XORed into data + 64 * block.
[[gnu::always_inline]] inline void xor_transposed(const U32x8* x,
                                                  std::uint8_t* data) {
  U32x8 t[8];  // 32-bit interleave of row pairs, within each 128-bit half
  for (int i = 0; i < 8; i += 2) {
    t[i] = __builtin_shufflevector(x[i], x[i + 1], 0, 8, 1, 9, 4, 12, 5, 13);
    t[i + 1] =
        __builtin_shufflevector(x[i], x[i + 1], 2, 10, 3, 11, 6, 14, 7, 15);
  }
  // 64-bit interleave: u[j] and u[j + 4] hold words 0-3 and 4-7 of blocks j
  // (low half) and j + 4 (high half).
  U32x8 u[8];
  for (int i = 0; i < 8; i += 4) {
    u[i] = __builtin_shufflevector(t[i], t[i + 2], 0, 1, 8, 9, 4, 5, 12, 13);
    u[i + 1] =
        __builtin_shufflevector(t[i], t[i + 2], 2, 3, 10, 11, 6, 7, 14, 15);
    u[i + 2] =
        __builtin_shufflevector(t[i + 1], t[i + 3], 0, 1, 8, 9, 4, 5, 12, 13);
    u[i + 3] = __builtin_shufflevector(t[i + 1], t[i + 3], 2, 3, 10, 11, 6, 7,
                                       14, 15);
  }
  for (int j = 0; j < 4; ++j) {  // join 128-bit halves
    xor32(data + 64 * j,
          __builtin_shufflevector(u[j], u[j + 4], 0, 1, 2, 3, 8, 9, 10, 11));
    xor32(data + 64 * (j + 4),
          __builtin_shufflevector(u[j], u[j + 4], 4, 5, 6, 7, 12, 13, 14, 15));
  }
}

[[gnu::always_inline]] inline void xor_steps(const std::uint32_t* state,
                                             std::uint8_t* data,
                                             std::size_t steps) {
  U32x8 input[16];
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t w = state[i];
    input[i] = U32x8{w, w, w, w, w, w, w, w};
  }
  // Lanes wrap mod 2^32 with no carry into the nonce, as the scalar core.
  input[12] += U32x8{0, 1, 2, 3, 4, 5, 6, 7};
  for (; steps > 0; --steps, data += kStepBytes) {
    U32x8 x[16];
    for (int i = 0; i < 16; ++i) x[i] = input[i];
    for (int round = 0; round < 10; ++round) {
      quarter_round8(x[0], x[4], x[8], x[12]);
      quarter_round8(x[1], x[5], x[9], x[13]);
      quarter_round8(x[2], x[6], x[10], x[14]);
      quarter_round8(x[3], x[7], x[11], x[15]);
      quarter_round8(x[0], x[5], x[10], x[15]);
      quarter_round8(x[1], x[6], x[11], x[12]);
      quarter_round8(x[2], x[7], x[8], x[13]);
      quarter_round8(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i) x[i] += input[i];
    xor_transposed(x, data);           // words 0-7 of every block
    xor_transposed(x + 8, data + 32);  // words 8-15
    input[12] += U32x8{8, 8, 8, 8, 8, 8, 8, 8};
  }
}

__attribute__((target("avx2")))
void xor_steps_avx2(const std::uint32_t* state, std::uint8_t* data,
                    std::size_t steps) {
  xor_steps(state, data, steps);
}

void xor_steps_baseline(const std::uint32_t* state, std::uint8_t* data,
                        std::size_t steps) {
  xor_steps(state, data, steps);
}

#endif  // RECIPE_CHACHA20_VECTOR

XorStepsFn select_vector_core() {
#ifdef RECIPE_CHACHA20_VECTOR
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return &xor_steps_avx2;
  return &xor_steps_baseline;
#else
  return nullptr;
#endif
}

// Null runs the scalar core alone. Constant-initialized so ChaCha20 is
// usable during other translation units' static initialization; the dynamic
// initializer below selects the vector core when the build has one.
XorStepsFn g_vector_core = nullptr;
const bool g_vector_core_selected = [] {
  g_vector_core = select_vector_core();
  return true;
}();

}  // namespace

bool chacha20_vector_accelerated() { return g_vector_core != nullptr; }

void set_chacha20_vector_acceleration(bool enabled) {
  g_vector_core = enabled ? select_vector_core() : nullptr;
}

void chacha20_xor(BytesView key, const ChaChaNonce& nonce,
                  std::uint32_t counter,
                  std::uint8_t* data, std::size_t len) {
  assert(key.size() == kChaChaKeySize);

  std::uint32_t state[16];
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);

  std::size_t offset = 0;
  if (g_vector_core != nullptr && len >= kStepBytes) {
    const std::size_t steps = len / kStepBytes;
    g_vector_core(state, data, steps);
    // Wraps mod 2^32 with no carry into the nonce, as state[12]++ below.
    state[12] += static_cast<std::uint32_t>(steps * kStepBlocks);
    offset = steps * kStepBytes;
  }
  std::uint8_t keystream[64];
  while (offset < len) {
    chacha20_block(state, keystream);
    state[12]++;
    const std::size_t n = std::min<std::size_t>(64, len - offset);
    for (std::size_t i = 0; i < n; ++i) data[offset + i] ^= keystream[i];
    offset += n;
  }
}

void chacha20_xor(BytesView key, const ChaChaNonce& nonce,
                  std::uint32_t counter,
                  Bytes& data) {
  chacha20_xor(key, nonce, counter, data.data(), data.size());
}

Bytes chacha20(BytesView key, const ChaChaNonce& nonce, std::uint32_t counter,
               BytesView data) {
  Bytes out(data.begin(), data.end());
  chacha20_xor(key, nonce, counter, out);
  return out;
}

ChaChaNonce make_nonce(std::uint32_t prefix, std::uint64_t counter) {
  ChaChaNonce nonce{};
  store_le32(nonce.data(), prefix);
  for (int i = 0; i < 8; ++i) {
    nonce[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(counter >> (8 * i));
  }
  return nonce;
}

ChaChaNonce make_channel_nonce(std::uint64_t cq, std::uint64_t counter) {
  // [0..7]: the FULL channel id; [8..11]: low counter bits. Injective over
  // (cq, counter mod 2^32), so distinct channels of a pairwise key can never
  // collide and counters are unique up to kChannelNonceMessageLimit —
  // callers (RecipeSecurity::shield) refuse to encrypt past that bound
  // rather than silently reuse a nonce.
  ChaChaNonce nonce{};
  store_le64(nonce.data(), cq);
  store_le32(nonce.data() + 8, static_cast<std::uint32_t>(counter));
  return nonce;
}

}  // namespace recipe::crypto
