// ChaCha20 stream cipher (RFC 8439), from scratch.
//
// Used by Recipe's confidentiality mode (Fig. 5): values stored in untrusted
// host memory and network payloads leaving the enclave are encrypted.
// Validated against RFC 8439 test vectors in tests/crypto_test.cpp.
//
// Whole 512-byte runs go through an eight-block vector core that a one-time
// CPUID probe picks (AVX2, else baseline x86-64); the portable scalar block
// function makes the remaining bytes, runs alone on other builds, and is the
// reference for the vector core.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace recipe::crypto {

constexpr std::size_t kChaChaKeySize = 32;
constexpr std::size_t kChaChaNonceSize = 12;

using ChaChaNonce = std::array<std::uint8_t, kChaChaNonceSize>;

// Encrypts/decrypts `len` bytes at `data` in place (XOR stream cipher: the
// operation is its own inverse). `counter` is the initial block counter
// (RFC 8439 uses 1 for AEAD payloads; we use 0 for raw streams). The raw
// pointer form lets callers transform a region inside a larger wire buffer
// without staging the payload in a separate allocation.
void chacha20_xor(BytesView key, const ChaChaNonce& nonce,
                  std::uint32_t counter,
                  std::uint8_t* data, std::size_t len);
void chacha20_xor(BytesView key, const ChaChaNonce& nonce,
                  std::uint32_t counter,
                  Bytes& data);

// True when the runtime dispatch selected a vector keystream core.
bool chacha20_vector_accelerated();

// Test/bench hook: swap between the vector core (when the build has one) and
// the scalar core, e.g. for differential testing or for measuring the scalar
// baseline. Process-wide.
void set_chacha20_vector_acceleration(bool enabled);

// Convenience: returns the transformed copy.
Bytes chacha20(BytesView key, const ChaChaNonce& nonce, std::uint32_t counter,
               BytesView data);

// Builds a nonce from a 96-bit value split as (32-bit domain prefix, message
// counter). Only safe when the prefix space genuinely fits 32 bits (e.g. the
// fixed "KV"/"CA" domain tags); channel traffic must use make_channel_nonce.
ChaChaNonce make_nonce(std::uint32_t prefix, std::uint64_t counter);

// Nonce for per-channel message encryption: the FULL 64-bit channel id plus
// the low 32 counter bits. ChannelId packs sender<<20|receiver, so truncating
// it to 32 bits (as make_nonce would) collides the two directions of a
// pairwise key for node ids >= 2^20 / ids equal in the low 12 bits — reusing
// a (key, nonce) pair across different plaintexts. Uniqueness per
// (key, message) holds while a channel stays below
// kChannelNonceMessageLimit messages; encrypting callers must refuse beyond
// it (a fresh key — i.e. re-attestation — is required to continue).
inline constexpr std::uint64_t kChannelNonceMessageLimit = 1ull << 32;
ChaChaNonce make_channel_nonce(std::uint64_t cq, std::uint64_t counter);

}  // namespace recipe::crypto
