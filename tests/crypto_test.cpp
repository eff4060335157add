// Crypto validation: NIST/RFC test vectors for SHA-256, HMAC-SHA-256, HKDF
// and ChaCha20, plus DH agreement and DRBG determinism, the streaming Hmac
// midstate cache, the SHA-NI/scalar and vector/scalar ChaCha20
// differentials, and the channel-nonce truncation regression.
#include <gtest/gtest.h>

#include <random>

#include "common/bytes.h"
#include "crypto/chacha20.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace recipe::crypto {
namespace {

std::string hex_of(const Sha256Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

// --- SHA-256 (FIPS 180-4 / NIST CAVP vectors) ------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::hash(BytesView{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::hash(as_view("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hex_of(Sha256::hash(as_view(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(as_view(chunk));
  EXPECT_EQ(hex_of(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("The quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); ++i) {
    h.update(BytesView(&data[i], 1));
  }
  EXPECT_EQ(h.finalize(), Sha256::hash(as_view(data)));
}

TEST(Sha256, Hash2EqualsConcatenation) {
  const Bytes a = to_bytes("hello ");
  const Bytes b = to_bytes("world");
  Bytes ab = a;
  append(ab, as_view(b));
  EXPECT_EQ(Sha256::hash2(as_view(a), as_view(b)), Sha256::hash(as_view(ab)));
}

TEST(Sha256, ReusableAfterFinalize) {
  Sha256 h;
  h.update(as_view("abc"));
  (void)h.finalize();
  h.update(as_view("abc"));
  EXPECT_EQ(hex_of(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --- HMAC-SHA-256 (RFC 4231 vectors) ---------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Mac mac = hmac_sha256(as_view(key), as_view("Hi There"));
  EXPECT_EQ(to_hex(BytesView(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Mac mac = hmac_sha256(as_view("Jefe"),
                              as_view("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(BytesView(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const Mac mac = hmac_sha256(as_view(key), as_view(data));
  EXPECT_EQ(to_hex(BytesView(mac.data(), mac.size())),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const Mac mac = hmac_sha256(
      as_view(key),
      as_view("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(BytesView(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, TwoPartEqualsConcatenated) {
  const Bytes key = to_bytes("key");
  const Mac a = hmac_sha256_2(as_view(key), as_view("foo"), as_view("bar"));
  const Mac b = hmac_sha256(as_view(key), as_view("foobar"));
  EXPECT_EQ(a, b);
}

TEST(Hmac, VerifyAcceptsAndRejects) {
  const Bytes key = to_bytes("secret");
  const Mac mac = hmac_sha256(as_view(key), as_view("message"));
  EXPECT_TRUE(hmac_verify(as_view(key), as_view("message"),
                          BytesView(mac.data(), mac.size())));
  EXPECT_FALSE(hmac_verify(as_view(key), as_view("Message"),
                           BytesView(mac.data(), mac.size())));
  const Bytes wrong_key = to_bytes("Secret");
  EXPECT_FALSE(hmac_verify(as_view(wrong_key), as_view("message"),
                           BytesView(mac.data(), mac.size())));
}

TEST(Sha256, HardwareAndScalarCoresAgree) {
  // Differential test: whatever core the dispatch picked must match the
  // portable scalar reference on random lengths spanning block boundaries.
  if (!Sha256::hardware_accelerated()) {
    GTEST_SKIP() << "no hardware SHA on this host; scalar-only";
  }
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    Bytes data(rng() % 1000);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const Sha256Digest hw = Sha256::hash(as_view(data));
    Sha256::set_hardware_acceleration(false);
    const Sha256Digest scalar = Sha256::hash(as_view(data));
    Sha256::set_hardware_acceleration(true);
    ASSERT_EQ(hw, scalar) << "len=" << data.size();
  }
}

TEST(Sha256, PaddingKnownAnswersAtEveryBufferFill) {
  // The first 64 bits of SHA-256 over the first n bytes of the pattern
  // (37 * i + 11) mod 256, for n = 0..130: every fill level of the last
  // block, with and without a second padding block. Generated with python3:
  //   p = bytes((37 * i + 11) & 255 for i in range(130))
  //   [hashlib.sha256(p[:n]).hexdigest()[:16] for n in range(131)]
  // Both compression cores share finalize(), so the differential test above
  // cannot catch a padding bug; run the answers through each core.
  static constexpr const char* kPrefixes[] = {
      "e3b0c44298fc1c14", "e7cf46a078fed4fa", "cdc63a6325d5fa92",
      "b39fad1a1075f645", "eedb9976fbc85067", "b0876eace1394020",
      "801da61dbcec4931", "e759cdfe6d8119af", "ada1a184226d6b2f",
      "5e0f483e871e0f84", "775297092df92dfd", "08fabd05da8d4962",
      "dd3fd284d8cc574a", "f9a3612d255e62d4", "66c694f29564ed1b",
      "09792492cd2b1db9", "cd7d620a0588e54d", "d6ef72ccf1dc07af",
      "f903fae92d4e901c", "9a20ae798f2ad83b", "74da03933ab6fc62",
      "90ce7915f1f22d07", "a0407fc482a072d7", "4d556bf9c23323e0",
      "23c7b48100a14207", "26c285015de52171", "934d8a4d5356f43a",
      "a05ecc61ba4d7933", "3dc7de8e7e5e2a49", "1a4959dca1af8f26",
      "c582303daf20ec31", "0cc420417cb6a768", "83b7a8ed859053c8",
      "e19474c88a4056ba", "9dad872820622ff8", "97b4af583dbc8199",
      "de547933205679b7", "c33aef5769fc8835", "cc539ac958c16c43",
      "cfc1ad90c5803aed", "76def75856e5d73e", "c3e0156169b2a775",
      "602d057fc3af303e", "3396a0e8fca1de6d", "adef897bed495fd4",
      "20b886fee380b8f6", "5012a47af354ee8d", "4c8c50af87190721",
      "a6250da1e7ca144a", "d08cf7eb5abf6b84", "32a1cfde77b79bf9",
      "4eae55438a1f230e", "a200151966c341bc", "a41ad7999ea32fb3",
      "0b35cded48f54683", "2900465fcb533e05", "31454ff48ef36af2",
      "bcc0a5d3791b985b", "625f50f0c121a43a", "5a85bd878ca7ff9e",
      "35d6f8129baac2bc", "de1025bf69990152", "88908d0c7953bf09",
      "5f6401b96532c36d", "94eb5de4943613fd", "fc518669b6eb4b4d",
      "65d7b2dbf0f1402f", "1751e734f4b375b9", "82ca07354ec5f5f7",
      "487875324c347b6b", "54600d51dc1bbf04", "2da56abe0ee37a40",
      "f1ea2423d41c019f", "d3d699995b8dca50", "085013af5c88bd1b",
      "bdfbaedb8843d8ed", "afe11f0eeb094a48", "6f01858ea26c3895",
      "c32a314d01b530f4", "3e4ebacf675f162f", "8afeccf31bf9f73c",
      "ddae3bfe09abd5af", "87bc08d52cbd1843", "48e6ff5b741939d2",
      "baa4f92a8a93935d", "aca8968db74fbd68", "d3431be4fd07bc8d",
      "dd6ac441d2d8e74e", "c51092ae9e5f2311", "9020292550485349",
      "3851694988980799", "6dd8ebcf9bdae6f5", "2f4ac2663ceea0e9",
      "f56327665603462d", "eeb364ed535ddee1", "47b36f08053588e6",
      "88e785f8ea2039c6", "60919a22a1cff77e", "4169a946e6e90dc9",
      "de7c1ec4aa814a4b", "5fb5d4b7ace49f5e", "ef70de4d49e091d7",
      "ad2bfc2ba2bacc49", "9ae38e0d0111478e", "76701c4459d8d58f",
      "70ef868078a5640f", "237384e7b0fded9f", "f3d5506a70f4dbf9",
      "0c0f21f9639bdc24", "dffe27d7c312f2e6", "65a81a885728692a",
      "aeca4f5a02aead30", "cec7a189fcea0a38", "cf1a963953155c44",
      "2ebc22005dfccb2a", "cd738c4986011502", "fb1b5da476c8834f",
      "ae8dd3e46094282f", "f3283313d4f923cd", "b0dc41b1a384e2f1",
      "5df24dd802ac2613", "5ed5a129bb49444f", "8419642ca144c433",
      "b9b8bc6127b8c9e1", "3dc980ced4e46879", "7e4f5abad35b869c",
      "8513afe4abd1c76b", "0fe729ff19257bd6", "0aedd4856f8eba09",
      "4f1757ae4bffbae8", "d35b74124cb85cfa",
  };
  Bytes pattern(130);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(37 * i + 11);
  }
  const bool hardware = Sha256::hardware_accelerated();
  for (const bool use_hardware : {true, false}) {
    if (use_hardware && !hardware) continue;
    Sha256::set_hardware_acceleration(use_hardware);
    for (std::size_t n = 0; n <= pattern.size(); ++n) {
      const Sha256Digest d = Sha256::hash(BytesView(pattern.data(), n));
      EXPECT_EQ(to_hex(BytesView(d.data(), 8)), kPrefixes[n])
          << "len=" << n << " hardware=" << use_hardware;
    }
  }
  Sha256::set_hardware_acceleration(true);
}

TEST(Hmac, StreamingMidstatesMatchOneShot) {
  const Bytes key = to_bytes("channel-key-material");
  const Hmac hmac(as_view(key));
  // Many messages through ONE cached key schedule.
  for (const char* m : {"", "a", "hello", "a much longer message spanning "
                        "more than one sixty-four byte SHA-256 block bound"}) {
    Sha256 inner = hmac.begin();
    inner.update(as_view(m));
    EXPECT_EQ(hmac.finish(inner), hmac_sha256(as_view(key), as_view(m)));
    EXPECT_EQ(hmac.mac(as_view(m)), hmac_sha256(as_view(key), as_view(m)));
  }
  EXPECT_EQ(hmac.mac2(as_view("foo"), as_view("bar")),
            hmac_sha256(as_view(key), as_view("foobar")));
  EXPECT_TRUE(hmac.verify(as_view("msg"),
                          [&] {
                            const Mac m = hmac.mac(as_view("msg"));
                            return Bytes(m.begin(), m.end());
                          }()));
}

TEST(Hmac, MidstateForkIsIndependent) {
  // Two streams off the same Hmac must not interfere.
  const Hmac hmac(as_view("key"));
  Sha256 s1 = hmac.begin();
  Sha256 s2 = hmac.begin();
  s1.update(as_view("one"));
  s2.update(as_view("two"));
  EXPECT_EQ(hmac.finish(s1), hmac_sha256(as_view("key"), as_view("one")));
  EXPECT_EQ(hmac.finish(s2), hmac_sha256(as_view("key"), as_view("two")));
}

TEST(Hmac, LongKeyMatchesRfcThroughClass) {
  const Bytes key(131, 0xaa);
  const Hmac hmac(as_view(key));
  const Mac mac = hmac.mac(
      as_view("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(BytesView(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(ConstantTimeEqual, Basics) {
  const Bytes a = to_bytes("aaaa");
  const Bytes b = to_bytes("aaab");
  EXPECT_TRUE(constant_time_equal(as_view(a), as_view(a)));
  EXPECT_FALSE(constant_time_equal(as_view(a), as_view(b)));
  EXPECT_FALSE(constant_time_equal(as_view(a), as_view(to_bytes("aaa"))));
}

// --- HKDF (RFC 5869 test vectors) ------------------------------------------

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf_sha256(as_view(ikm), as_view(salt), as_view(info), 42);
  EXPECT_EQ(to_hex(as_view(okm)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf_sha256(as_view(ikm), BytesView{}, BytesView{}, 42);
  EXPECT_EQ(to_hex(as_view(okm)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, OutputLengthRespected) {
  for (std::size_t n : {1u, 16u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(hkdf_sha256(as_view("ikm"), BytesView{}, BytesView{}, n).size(),
              n);
  }
}

// --- ChaCha20 (RFC 8439 §2.4.2 vector) --------------------------------------

TEST(ChaCha20, Rfc8439Vector) {
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  ChaChaNonce nonce{};
  const Bytes nonce_bytes = from_hex("000000000000004a00000000");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const char* plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const Bytes out = chacha20(as_view(key), nonce, 1, as_view(plaintext));
  EXPECT_EQ(to_hex(as_view(out)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, RoundTrip) {
  const Bytes key(32, 0x42);
  const auto nonce = make_nonce(7, 99);
  const Bytes plaintext = to_bytes("attack at dawn");
  Bytes data = plaintext;
  chacha20_xor(as_view(key), nonce, 0, data);
  EXPECT_NE(data, plaintext);
  chacha20_xor(as_view(key), nonce, 0, data);
  EXPECT_EQ(data, plaintext);
}

TEST(ChaCha20, DistinctNoncesDistinctStreams) {
  const Bytes key(32, 0x42);
  const Bytes zeros(64, 0);
  const Bytes s1 = chacha20(as_view(key), make_nonce(1, 1), 0, as_view(zeros));
  const Bytes s2 = chacha20(as_view(key), make_nonce(1, 2), 0, as_view(zeros));
  EXPECT_NE(s1, s2);
}

TEST(ChaCha20, RawPointerRegionMatchesBytesOverload) {
  const Bytes key(32, 0x13);
  const auto nonce = make_nonce(5, 6);
  Bytes whole = to_bytes("prefix|payload-region|suffix");
  Bytes region = to_bytes("payload-region");
  // Transform a region inside a larger buffer in place.
  chacha20_xor(as_view(key), nonce, 0, whole.data() + 7, region.size());
  chacha20_xor(as_view(key), nonce, 0, region);
  EXPECT_EQ(
      Bytes(whole.begin() + 7,
            whole.begin() + 7 + static_cast<std::ptrdiff_t>(region.size())),
      region);
  EXPECT_EQ(to_string(BytesView(whole.data(), 7)), "prefix|");
}

TEST(ChaCha20, Rfc8439KeyFourKibKnownAnswer) {
  // 4,096 bytes of keystream (64 blocks: eight vector steps) under the
  // RFC 8439 section 2.4.2 key and nonce at counter 1. Generated with
  // python3 `cryptography` 48.0.0, whose ChaCha20 takes counter || nonce as
  // one 16-byte nonce: the SHA-256 of the output and its first and last
  // 16 bytes (the first is RFC 8439's own block at counter 1).
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  ChaChaNonce nonce{};
  const Bytes nonce_bytes = from_hex("000000000000004a00000000");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const Bytes zeros(4096, 0);
  for (const bool vector : {true, false}) {
    set_chacha20_vector_acceleration(vector);
    const Bytes out = chacha20(as_view(key), nonce, 1, as_view(zeros));
    EXPECT_EQ(to_hex(BytesView(out.data(), 16)),
              "224f51f3401bd9e12fde276fb8631ded")
        << "vector=" << vector;
    EXPECT_EQ(to_hex(BytesView(out.data() + out.size() - 16, 16)),
              "e00d5a322ccbc5d08df5e298ee82819c")
        << "vector=" << vector;
    EXPECT_EQ(hex_of(Sha256::hash(as_view(out))),
              "03e37045b672bfe4c0c0265ac4ea21d5"
              "1eda7e5de4f812ecc13bbdeaf7c9fa41")
        << "vector=" << vector;
  }
  set_chacha20_vector_acceleration(true);
}

TEST(ChaCha20, VectorAndScalarCoresAgree) {
  // Differential test of the eight-block core against the scalar reference.
  // Lengths 0-2,100 take zero to four vector steps plus every tail; start
  // offsets inside a larger buffer make loads and stores unaligned; every
  // other case starts within 8 blocks of 2^32, so the counter wraps inside
  // one step and must not carry into the nonce. Bytes around the region must
  // stay untouched.
  if (!chacha20_vector_accelerated()) {
    GTEST_SKIP() << "no vector ChaCha20 core in this build";
  }
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes key(kChaChaKeySize);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng());
    ChaChaNonce nonce{};
    for (auto& b : nonce) b = static_cast<std::uint8_t>(rng());
    const std::uint32_t counter =
        iter % 2 == 0 ? static_cast<std::uint32_t>(0 - (1 + rng() % 8))
                      : static_cast<std::uint32_t>(rng());
    const std::size_t len = rng() % 2101;
    const std::size_t offset = rng() % 64;
    Bytes vector_out(offset + len + 64);
    for (auto& b : vector_out) b = static_cast<std::uint8_t>(rng());
    Bytes scalar_out = vector_out;

    chacha20_xor(as_view(key), nonce, counter, vector_out.data() + offset,
                 len);
    set_chacha20_vector_acceleration(false);
    chacha20_xor(as_view(key), nonce, counter, scalar_out.data() + offset,
                 len);
    set_chacha20_vector_acceleration(true);
    ASSERT_EQ(vector_out, scalar_out)
        << "len=" << len << " offset=" << offset << " counter=" << counter;
  }
}

// --- Channel nonces ----------------------------------------------------------

TEST(ChannelNonce, RegressionLargeNodeIdsNoLongerCollide) {
  // ChannelId packs sender<<20|receiver. For nodes a and b with a ≡ b
  // (mod 2^20) — e.g. 5 and 5+2^20 — the two DIRECTIONS of the pairwise key
  // agree in the low 32 bits of cq, so the old make_nonce(uint32(cq), cnt)
  // produced the SAME nonce for both directions at equal counters: keystream
  // reuse under one key. The full-64-bit make_channel_nonce must not.
  const std::uint64_t a = 5;
  const std::uint64_t b = 5 + (1ull << 20);
  const std::uint64_t cq_ab = (a << 20) | (b & 0xFFFFF);
  const std::uint64_t cq_ba = (b << 20) | (a & 0xFFFFF);
  ASSERT_NE(cq_ab, cq_ba);
  // The truncation that made the old scheme unsafe:
  ASSERT_EQ(static_cast<std::uint32_t>(cq_ab),
            static_cast<std::uint32_t>(cq_ba));
  EXPECT_EQ(make_nonce(static_cast<std::uint32_t>(cq_ab), 1),
            make_nonce(static_cast<std::uint32_t>(cq_ba), 1));  // the old bug
  EXPECT_NE(make_channel_nonce(cq_ab, 1), make_channel_nonce(cq_ba, 1));

  // Same class of collision for sender ids equal in the low 12 bits.
  const std::uint64_t c = 7;
  const std::uint64_t d = 7 + (1ull << 12);
  const std::uint64_t cq1 = (c << 20) | 3;
  const std::uint64_t cq2 = (d << 20) | 3;
  ASSERT_EQ(static_cast<std::uint32_t>(cq1), static_cast<std::uint32_t>(cq2));
  EXPECT_NE(make_channel_nonce(cq1, 9), make_channel_nonce(cq2, 9));
}

TEST(ChannelNonce, InjectiveUpToMessageLimit) {
  const std::uint64_t cq = 0xDEADBEEFCAFEF00Dull;
  // Distinct counters below kChannelNonceMessageLimit map to distinct
  // nonces; distinct channels never collide regardless of counters.
  const std::uint64_t counters[] = {0, 1, 2, 0xFFFFu, 0x12345678u,
                                    kChannelNonceMessageLimit - 1};
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    for (std::size_t j = i + 1; j < std::size(counters); ++j) {
      EXPECT_NE(make_channel_nonce(cq, counters[i]),
                make_channel_nonce(cq, counters[j]))
          << counters[i] << " vs " << counters[j];
    }
    EXPECT_NE(make_channel_nonce(cq, counters[i]),
              make_channel_nonce(cq ^ 1, counters[i]));
  }
  // AT the limit the low 32 bits wrap — which is exactly why
  // RecipeSecurity::shield refuses to encrypt once a channel's counter
  // reaches kChannelNonceMessageLimit (re-key via re-attestation instead).
  EXPECT_EQ(make_channel_nonce(cq, 0),
            make_channel_nonce(cq, kChannelNonceMessageLimit));
}

// --- Diffie-Hellman
// -----------------------------------------------------------

TEST(DiffieHellman, AgreementMatches) {
  Rng rng(11);
  const DhKeyPair alice = DiffieHellman::generate(rng);
  const DhKeyPair bob = DiffieHellman::generate(rng);
  const auto ka = DiffieHellman::shared_key(alice.private_exponent,
                                            bob.public_value, as_view("ctx"));
  const auto kb = DiffieHellman::shared_key(bob.private_exponent,
                                            alice.public_value, as_view("ctx"));
  EXPECT_EQ(ka.material, kb.material);
  EXPECT_EQ(ka.material.size(), kSymmetricKeySize);
}

TEST(DiffieHellman, ContextSeparatesKeys) {
  Rng rng(11);
  const DhKeyPair alice = DiffieHellman::generate(rng);
  const DhKeyPair bob = DiffieHellman::generate(rng);
  const auto k1 = DiffieHellman::shared_key(alice.private_exponent,
                                            bob.public_value, as_view("ctx1"));
  const auto k2 = DiffieHellman::shared_key(alice.private_exponent,
                                            bob.public_value, as_view("ctx2"));
  EXPECT_NE(k1.material, k2.material);
}

TEST(DiffieHellman, EavesdropperKeyDiffers) {
  Rng rng(11);
  const DhKeyPair alice = DiffieHellman::generate(rng);
  const DhKeyPair bob = DiffieHellman::generate(rng);
  const DhKeyPair eve = DiffieHellman::generate(rng);
  const auto kab = DiffieHellman::shared_key(alice.private_exponent,
                                             bob.public_value, as_view("ctx"));
  const auto keb = DiffieHellman::shared_key(eve.private_exponent,
                                             bob.public_value, as_view("ctx"));
  EXPECT_NE(kab.material, keb.material);
}

TEST(DiffieHellman, ModexpKnownValues) {
  EXPECT_EQ(DiffieHellman::modexp(2, 10, 1000000007ULL), 1024u);
  EXPECT_EQ(DiffieHellman::modexp(3, 0, 97), 1u);
  // Fermat: a^(p-1) = 1 mod p for prime p.
  EXPECT_EQ(DiffieHellman::modexp(12345, DiffieHellman::kPrime - 1,
                                  DiffieHellman::kPrime),
            1u);
}

// --- DRBG
// ---------------------------------------------------------------------

TEST(Drbg, DeterministicPerSeed) {
  Drbg a(as_view("seed-1"));
  Drbg b(as_view("seed-1"));
  Drbg c(as_view("seed-2"));
  EXPECT_EQ(a.generate(64), b.generate(64));
  EXPECT_NE(Drbg(as_view("seed-1")).generate(64), c.generate(64));
}

TEST(Drbg, SuccessiveOutputsDiffer) {
  Drbg d(as_view("seed"));
  EXPECT_NE(d.generate(32), d.generate(32));
  EXPECT_NE(d.generate_u64(), d.generate_u64());
}

TEST(Drbg, GenerateKeyHasCorrectSize) {
  Drbg d(as_view("seed"));
  EXPECT_EQ(d.generate_key().material.size(), kSymmetricKeySize);
}

}  // namespace
}  // namespace recipe::crypto
