#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define RECIPE_SHA256_X86 1
#endif

namespace recipe::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void process_blocks_scalar(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks) {
  while (blocks-- > 0) {
    const std::uint8_t* block = data;
    data += 64;

    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef RECIPE_SHA256_X86

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

// SHA-NI compression: two rounds per sha256rnds2, message schedule kept in
// four xmm registers. State layout follows the ISA's ABEF/CDGH convention.
__attribute__((target("sha,sse4.1,ssse3")))
void process_blocks_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks) {
  const __m128i kShuffleMask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 0));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));

  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);      // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);   // CDGH

  while (blocks-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg, msgtmp;

    // Rounds 0-3
    __m128i msg0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)),
        kShuffleMask);
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 4-7
    __m128i msg1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)),
        kShuffleMask);
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11
    __m128i msg2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)),
        kShuffleMask);
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15
    __m128i msg3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)),
        kShuffleMask);
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-19
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, msgtmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 20-23
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 24-27
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 28-31
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 32-35
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, msgtmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 36-39
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 40-43
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 44-47
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 48-51
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, msgtmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 52-55
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 56-59
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 60-63
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);         // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);      // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);   // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);      // HGFE

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 0), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#endif  // RECIPE_SHA256_X86

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

CompressFn select_compress() {
#ifdef RECIPE_SHA256_X86
  if (cpu_has_sha_ni()) return &process_blocks_sha_ni;
#endif
  return &process_blocks_scalar;
}

// Constant-initialized to the scalar core so SHA-256 is usable even during
// other translation units' static initialization (no init-order fiasco);
// the dynamic initializer below upgrades to the hardware core when present.
CompressFn g_compress = &process_blocks_scalar;
const bool g_compress_selected = [] {
  g_compress = select_compress();
  return true;
}();

}  // namespace

bool Sha256::hardware_accelerated() {
  return g_compress != &process_blocks_scalar;
}

void Sha256::set_hardware_acceleration(bool enabled) {
  g_compress = enabled ? select_compress() : &process_blocks_scalar;
}

void Sha256::reset() {
  state_ = kInitialState;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t blocks) {
  g_compress(state_.data(), data, blocks);
}

void Sha256::update(BytesView data) {
  if (data.empty()) return;  // empty views may carry a null data()
  bit_count_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }

  if (const std::size_t full = (data.size() - offset) / 64; full > 0) {
    process_blocks(data.data() + offset, full);
    offset += full * 64;
  }

  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Sha256Digest Sha256::finalize() {
  // Padding goes straight into the block buffer: 0x80, zeros, and the
  // big-endian bit length in the last 8 bytes, spilling into a second block
  // when fewer than 9 bytes are free.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    process_blocks(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  store_be32(buffer_.data() + 56, static_cast<std::uint32_t>(bit_count_ >> 32));
  store_be32(buffer_.data() + 60, static_cast<std::uint32_t>(bit_count_));
  process_blocks(buffer_.data(), 1);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state_[i]);
  reset();
  return digest;
}

Sha256Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Sha256Digest Sha256::hash2(BytesView a, BytesView b) {
  Sha256 h;
  h.update(a);
  h.update(b);
  return h.finalize();
}

bool constant_time_equal(BytesView a, BytesView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace recipe::crypto
