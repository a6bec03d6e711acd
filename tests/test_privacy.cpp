#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "privacy/biguint.hpp"
#include "privacy/dh.hpp"
#include "privacy/dp.hpp"
#include "privacy/he.hpp"
#include "privacy/mechanism.hpp"
#include "privacy/paillier.hpp"
#include "privacy/secure_agg.hpp"
#include "privacy/sha256.hpp"
#include "config/yaml.hpp"
#include "exec/pool.hpp"
#include "simd/simd.hpp"

namespace {

using of::privacy::BigUInt;
using of::privacy::Sha256;
using of::tensor::Bytes;
using of::tensor::Rng;
using of::tensor::Tensor;

// --- SHA-256 against FIPS 180-4 test vectors ---------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(of::privacy::digest_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(of::privacy::digest_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(of::privacy::digest_hex(
                Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(of::privacy::digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(of::privacy::digest_hex(h.finish()),
            of::privacy::digest_hex(Sha256::hash("hello world")));
}

// --- HMAC-SHA256 against RFC 4231 test vectors -------------------------------------

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(of::privacy::digest_hex(of::privacy::hmac_sha256("Jefe",
                                                             "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case1) {
  const std::string key(20, '\x0b');
  EXPECT_EQ(of::privacy::digest_hex(of::privacy::hmac_sha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const std::string key(131, '\xaa');
  EXPECT_EQ(of::privacy::digest_hex(of::privacy::hmac_sha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacDrbg, DeterministicAndNonRepeating) {
  std::vector<std::uint8_t> key{1, 2, 3};
  of::privacy::HmacDrbg a(key), b(key);
  std::uint8_t x[100], y[100];
  a.generate(x, 100);
  b.generate(y, 100);
  EXPECT_EQ(0, std::memcmp(x, y, 100));
  std::uint8_t z[100];
  a.generate(z, 100);  // continuing the stream must differ
  EXPECT_NE(0, std::memcmp(x, z, 100));
}

// --- BigUInt -----------------------------------------------------------------------

TEST(BigUInt, ConstructionAndCompare) {
  EXPECT_TRUE(BigUInt().is_zero());
  EXPECT_EQ(BigUInt(5).to_u64(), 5u);
  EXPECT_EQ(BigUInt(0xFFFFFFFFFFFFFFFFULL).to_u64(), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_LT(BigUInt(3), BigUInt(7));
  EXPECT_GT(BigUInt(1) << 64, BigUInt(0xFFFFFFFFFFFFFFFFULL));
}

TEST(BigUInt, HexRoundtrip) {
  const std::string hex = "deadbeefcafebabe0123456789abcdef";
  EXPECT_EQ(BigUInt::from_hex(hex).to_hex(), hex);
  EXPECT_EQ(BigUInt(0).to_hex(), "0");
}

TEST(BigUInt, BytesRoundtrip) {
  Rng rng(1);
  const BigUInt a = BigUInt::random_bits(300, rng);
  EXPECT_EQ(BigUInt::from_bytes_be(a.to_bytes_be()), a);
}

TEST(BigUInt, AddSubSmall) {
  EXPECT_EQ(BigUInt(7) + BigUInt(8), BigUInt(15));
  EXPECT_EQ(BigUInt(100) - BigUInt(58), BigUInt(42));
  EXPECT_THROW(BigUInt(1) - BigUInt(2), std::runtime_error);
}

TEST(BigUInt, CarryPropagation) {
  const BigUInt max32(0xFFFFFFFFULL);
  EXPECT_EQ((max32 + BigUInt(1)).to_u64(), 0x100000000ULL);
  const BigUInt max64(0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ((max64 + BigUInt(1)).to_hex(), "10000000000000000");
}

TEST(BigUInt, MulAgainstNative128) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const unsigned __int128 ref = static_cast<unsigned __int128>(a) * b;
    const BigUInt big = BigUInt(a) * BigUInt(b);
    EXPECT_EQ((big >> 64).to_u64(), static_cast<std::uint64_t>(ref >> 64));
    EXPECT_EQ((big % (BigUInt(1) << 64)).to_u64(), static_cast<std::uint64_t>(ref));
  }
}

TEST(BigUInt, DivModIdentityProperty) {
  // For random wide operands: u == q·v + r and r < v (Knuth D correctness).
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const std::size_t ubits = 64 + rng.next_below(450);
    const std::size_t vbits = 32 + rng.next_below(ubits);
    const BigUInt u = BigUInt::random_bits(ubits, rng);
    BigUInt v = BigUInt::random_bits(vbits, rng);
    if (v.is_zero()) v = BigUInt(1);
    BigUInt q, r;
    BigUInt::divmod(u, v, q, r);
    EXPECT_LT(r, v);
    EXPECT_EQ(q * v + r, u);
  }
}

TEST(BigUInt, DivModEdgeCases) {
  BigUInt q, r;
  // u == v
  BigUInt::divmod(BigUInt(7), BigUInt(7), q, r);
  EXPECT_EQ(q, BigUInt(1));
  EXPECT_TRUE(r.is_zero());
  // v == 1
  const BigUInt big = BigUInt::from_hex("ffffffffffffffffffffffffffffffff");
  BigUInt::divmod(big, BigUInt(1), q, r);
  EXPECT_EQ(q, big);
  EXPECT_TRUE(r.is_zero());
  // divisor exactly one limb boundary (2^32)
  BigUInt::divmod(big, BigUInt(1) << 32, q, r);
  EXPECT_EQ(q, big >> 32);
  EXPECT_EQ(r, big % (BigUInt(1) << 32));
  // u < v
  BigUInt::divmod(BigUInt(3), big, q, r);
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, BigUInt(3));
  // Knuth D add-back path exerciser: divisor with max top limb
  const BigUInt u = BigUInt::from_hex("80000000000000000000000000000000");
  const BigUInt v = BigUInt::from_hex("ffffffff00000001");
  BigUInt::divmod(u, v, q, r);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
}

TEST(BigUInt, DivByZeroThrows) {
  BigUInt q, r;
  EXPECT_THROW(BigUInt::divmod(BigUInt(5), BigUInt(0), q, r), std::runtime_error);
}

TEST(BigUInt, ShiftsInverse) {
  Rng rng(4);
  const BigUInt a = BigUInt::random_bits(200, rng);
  for (std::size_t s : {1u, 31u, 32u, 33u, 64u, 100u})
    EXPECT_EQ((a << s) >> s, a);
}

TEST(BigUInt, PowmodAgainstNative) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t base = rng.next_below(1 << 30);
    const std::uint64_t exp = rng.next_below(1 << 20);
    const std::uint64_t mod = 2 + rng.next_below(1 << 30);
    std::uint64_t ref = 1;
    for (std::uint64_t b = base % mod, e = exp; e; e >>= 1) {
      if (e & 1) ref = ref * b % mod;
      b = b * b % mod;
    }
    EXPECT_EQ(BigUInt::powmod(BigUInt(base), BigUInt(exp), BigUInt(mod)).to_u64(), ref);
  }
}

TEST(BigUInt, FermatLittleTheorem) {
  // a^(p-1) ≡ 1 (mod p) for generated primes — exercises powmod + prime gen.
  Rng rng(6);
  const BigUInt p = BigUInt::random_prime(96, rng);
  for (int i = 0; i < 5; ++i) {
    const BigUInt a = BigUInt(2) + BigUInt::random_below(p - BigUInt(3), rng);
    EXPECT_EQ(BigUInt::powmod(a, p - BigUInt(1), p), BigUInt(1));
  }
}

TEST(BigUInt, GcdLcm) {
  EXPECT_EQ(BigUInt::gcd(BigUInt(12), BigUInt(18)), BigUInt(6));
  EXPECT_EQ(BigUInt::lcm(BigUInt(4), BigUInt(6)), BigUInt(12));
  EXPECT_EQ(BigUInt::gcd(BigUInt(17), BigUInt(13)), BigUInt(1));
}

TEST(BigUInt, InvModProperty) {
  Rng rng(7);
  const BigUInt m = BigUInt::random_prime(64, rng);
  for (int i = 0; i < 50; ++i) {
    const BigUInt a = BigUInt(1) + BigUInt::random_below(m - BigUInt(1), rng);
    const BigUInt inv = BigUInt::invmod(a, m);
    EXPECT_EQ(BigUInt::mulmod(a, inv, m), BigUInt(1));
  }
  EXPECT_THROW(BigUInt::invmod(BigUInt(6), BigUInt(9)), std::runtime_error);
}

TEST(BigUInt, MillerRabinKnownPrimesAndComposites) {
  Rng rng(8);
  EXPECT_TRUE(BigUInt::is_probable_prime(BigUInt(2), rng));
  EXPECT_TRUE(BigUInt::is_probable_prime(BigUInt(97), rng));
  EXPECT_TRUE(BigUInt::is_probable_prime(BigUInt(2147483647ULL), rng));  // 2^31−1
  EXPECT_FALSE(BigUInt::is_probable_prime(BigUInt(1), rng));
  EXPECT_FALSE(BigUInt::is_probable_prime(BigUInt(561), rng));   // Carmichael
  EXPECT_FALSE(BigUInt::is_probable_prime(BigUInt(41041), rng)); // Carmichael
  EXPECT_FALSE(BigUInt::is_probable_prime(BigUInt(97ULL * 89), rng));
}

TEST(BigUInt, RandomPrimeHasExactBitLength) {
  Rng rng(9);
  const BigUInt p = BigUInt::random_prime(80, rng);
  EXPECT_EQ(p.bit_length(), 80u);
  EXPECT_TRUE(p.is_odd());
}

TEST(BigUInt, RandomBelowIsBelow) {
  Rng rng(10);
  const BigUInt bound = BigUInt::random_bits(100, rng) + BigUInt(1);
  for (int i = 0; i < 100; ++i) EXPECT_LT(BigUInt::random_below(bound, rng), bound);
}

// --- Paillier ---------------------------------------------------------------------

class PaillierFixture : public ::testing::Test {
 protected:
  static of::privacy::Paillier& scheme() {
    static of::privacy::Paillier s = [] {
      Rng rng(11);
      return of::privacy::Paillier::keygen(128, rng);
    }();
    return s;
  }
};

TEST_F(PaillierFixture, EncryptDecryptRoundtrip) {
  Rng rng(12);
  for (std::uint64_t m : {0ULL, 1ULL, 42ULL, 1234567ULL}) {
    const BigUInt c = scheme().encrypt(BigUInt(m), rng);
    EXPECT_EQ(scheme().decrypt(c).to_u64(), m);
  }
}

TEST_F(PaillierFixture, HomomorphicAddition) {
  Rng rng(13);
  const BigUInt ca = scheme().encrypt(BigUInt(1000), rng);
  const BigUInt cb = scheme().encrypt(BigUInt(234), rng);
  EXPECT_EQ(scheme().decrypt(scheme().add(ca, cb)).to_u64(), 1234u);
}

TEST_F(PaillierFixture, HomomorphicScalarMultiply) {
  Rng rng(14);
  const BigUInt c = scheme().encrypt(BigUInt(77), rng);
  EXPECT_EQ(scheme().decrypt(scheme().scale(c, BigUInt(9))).to_u64(), 693u);
}

TEST_F(PaillierFixture, CiphertextsAreRandomized) {
  Rng rng(15);
  const BigUInt c1 = scheme().encrypt(BigUInt(5), rng);
  const BigUInt c2 = scheme().encrypt(BigUInt(5), rng);
  EXPECT_NE(c1, c2);  // semantic security: same plaintext, fresh randomness
}

TEST_F(PaillierFixture, PlaintextTooLargeThrows) {
  Rng rng(16);
  const BigUInt too_big = scheme().pub().n + BigUInt(1);
  EXPECT_THROW(scheme().encrypt(too_big, rng), std::runtime_error);
}

TEST(PaillierVector, TensorSumRoundtrip) {
  Rng rng(17);
  of::privacy::PaillierVector vec(192, /*max_summands=*/16, rng);
  Rng enc_rng(18);
  const Tensor a = Tensor::from_vector({1.5f, -2.25f, 0.0f, 100.0f, -0.001f});
  const Tensor b = Tensor::from_vector({-1.0f, 2.0f, 3.5f, -50.0f, 0.5f});
  std::vector<BigUInt> acc;
  vec.accumulate(acc, vec.encrypt(a, enc_rng));
  vec.accumulate(acc, vec.encrypt(b, enc_rng));
  const Tensor sum = vec.decrypt_sum(acc, 5, 2);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(sum[i], a[i] + b[i], 1e-3f);
}

TEST(PaillierVector, ManySummands) {
  Rng rng(19);
  of::privacy::PaillierVector vec(192, 64, rng);
  Rng enc_rng(20);
  std::vector<BigUInt> acc;
  const int k = 12;
  Tensor expected({7});
  Rng data_rng(21);
  for (int i = 0; i < k; ++i) {
    const Tensor t = Tensor::randn({7}, data_rng);
    expected.add_(t);
    vec.accumulate(acc, vec.encrypt(t, enc_rng));
  }
  const Tensor sum = vec.decrypt_sum(acc, 7, k);
  EXPECT_TRUE(sum.allclose(expected, 1e-2f, 1e-3f));
}

TEST(PaillierVector, PacksMultipleValuesPerCiphertext) {
  Rng rng(22);
  of::privacy::PaillierVector vec(256, 16, rng);
  EXPECT_GE(vec.values_per_ciphertext(), 3u);
}

// --- differential privacy -----------------------------------------------------------

TEST(Dp, SigmaCalibration) {
  of::privacy::DpParams p{1.0, 1e-5, 1.0};
  // σ = C·√(2 ln(1.25/δ))/ε ≈ 4.84 for these parameters.
  EXPECT_NEAR(of::privacy::gaussian_sigma(p), 4.84, 0.02);
  p.epsilon = 10.0;
  EXPECT_NEAR(of::privacy::gaussian_sigma(p), 0.484, 0.002);
}

TEST(Dp, HigherEpsilonLessNoise) {
  of::privacy::DpParams lo{1.0, 1e-5, 1.0}, hi{10.0, 1e-5, 1.0};
  EXPECT_GT(of::privacy::gaussian_sigma(lo), of::privacy::gaussian_sigma(hi));
}

TEST(Dp, NoiseStdMatchesCalibration) {
  of::privacy::DpParams p{2.0, 1e-5, 1.0};
  of::privacy::DifferentialPrivacy dp(p, 23);
  const std::size_t n = 50000;
  const Tensor zero({n});
  const Bytes out = dp.protect(zero, 0, 1);
  const Tensor noised = of::tensor::deserialize_tensor(out);
  double var = 0.0;
  for (std::size_t i = 0; i < n; ++i) var += noised[i] * noised[i];
  var /= n;
  const double sigma = of::privacy::gaussian_sigma(p);
  EXPECT_NEAR(std::sqrt(var), sigma, sigma * 0.05);
}

TEST(Dp, ClippingBoundsSensitivity) {
  of::privacy::DpParams p{1000.0, 1e-5, 1.0};  // near-zero noise isolates the clip
  of::privacy::DifferentialPrivacy dp(p, 24);
  Tensor big = Tensor::full({100}, 10.0f);  // ‖·‖₂ = 100 ≫ clip 1.0
  const Tensor out = of::tensor::deserialize_tensor(dp.protect(big, 0, 1));
  EXPECT_NEAR(out.l2_norm(), 1.0f, 0.05f);
}

TEST(Dp, AccountantComposes) {
  of::privacy::CompositionAccountant acc;
  for (int i = 0; i < 10; ++i) acc.record_release(0.1, 1e-6);
  EXPECT_NEAR(acc.basic_epsilon(), 1.0, 1e-9);
  EXPECT_NEAR(acc.basic_delta(), 1e-5, 1e-12);
  EXPECT_EQ(acc.releases(), 10u);
  // Advanced composition beats basic for many small releases.
  of::privacy::CompositionAccountant many;
  for (int i = 0; i < 1000; ++i) many.record_release(0.01, 1e-8);
  EXPECT_LT(many.advanced_epsilon(1e-6), many.basic_epsilon());
}

TEST(Dp, AggregateSumIsPlainSum) {
  of::privacy::DpParams p{1.0, 1e-5, 10.0};
  of::privacy::DifferentialPrivacy dp(p, 25);
  of::privacy::NoPrivacy none;
  const Tensor a = Tensor::from_vector({1, 2});
  const Tensor b = Tensor::from_vector({3, 4});
  const Tensor sum = none.aggregate_sum(
      {none.protect(a, 0, 2), none.protect(b, 1, 2)}, 2);
  EXPECT_FLOAT_EQ(sum[0], 4.0f);
  EXPECT_FLOAT_EQ(sum[1], 6.0f);
}

// --- counter-based DP noise ----------------------------------------------------------

// Philox4x32-10 known-answer vectors from Random123 (kat_vectors).
TEST(Philox, Random123KnownAnswers) {
  using Ctr = std::array<std::uint32_t, 4>;
  using Key = std::array<std::uint32_t, 2>;
  EXPECT_EQ(of::simd::philox4x32_10(Ctr{0, 0, 0, 0}, Key{0, 0}),
            (Ctr{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}));
  EXPECT_EQ(of::simd::philox4x32_10(Ctr{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
                                    Key{0xffffffff, 0xffffffff}),
            (Ctr{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}));
  EXPECT_EQ(of::simd::philox4x32_10(Ctr{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
                                    Key{0xa4093822, 0x299f31d0}),
            (Ctr{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}));
}

Bytes protect_once(std::uint64_t seed, std::uint64_t round, std::uint64_t client,
                   const Tensor& update) {
  of::privacy::DifferentialPrivacy dp({1.0, 1e-5, 1.0}, seed);
  dp.set_stream(round, client);
  return dp.protect(update, static_cast<int>(client), 4);
}

Tensor random_update(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t({n});
  for (std::size_t i = 0; i < n; ++i) t[i] = static_cast<float>(rng.gaussian(0.0, 0.01));
  return t;
}

// protect() is a pure function of (seed, round, client, release): the same
// bytes for threads 1 vs 4 and grain 1 vs 4096 on the exec pool.
TEST(DpStream, BytesIndependentOfThreadsAndGrain) {
  const Tensor u = random_update(50001, 3);
  auto& pool = of::exec::Pool::global();
  pool.configure(1, 4096);
  const Bytes serial = protect_once(99, 4, 2, u);
  pool.configure(4, 4096);
  const Bytes threaded = protect_once(99, 4, 2, u);
  pool.configure(4, 1);
  const Bytes fine = protect_once(99, 4, 2, u);
  pool.configure(1, 4096);
  const Bytes fine_serial = protect_once(99, 4, 2, u);
  pool.configure(1);
  EXPECT_TRUE(serial == threaded);
  EXPECT_TRUE(serial == fine);
  EXPECT_TRUE(serial == fine_serial);
}

TEST(DpStream, OutputDependsOnlyOnTheStream) {
  const Tensor u = random_update(1001, 4);
  const Bytes fresh = protect_once(7, 5, 2, u);
  // The same stream after unrelated releases on the same mechanism.
  of::privacy::DifferentialPrivacy dp({1.0, 1e-5, 1.0}, 7);
  (void)dp.protect(u, 0, 4);
  dp.set_stream(1, 0);
  (void)dp.protect(u, 0, 4);
  (void)dp.protect(u, 0, 4);
  dp.set_stream(5, 2);
  EXPECT_TRUE(dp.protect(u, 2, 4) == fresh);
  // Every stream coordinate moves the noise.
  EXPECT_FALSE(protect_once(8, 5, 2, u) == fresh);
  EXPECT_FALSE(protect_once(7, 6, 2, u) == fresh);
  EXPECT_FALSE(protect_once(7, 5, 3, u) == fresh);
}

TEST(DpStream, SecondReleaseOnOneStreamDrawsNewNoise) {
  const Tensor u = random_update(1001, 5);
  of::privacy::DifferentialPrivacy dp({1.0, 1e-5, 1.0}, 11);
  dp.set_stream(3, 1);
  const Tensor first = of::tensor::deserialize_tensor(dp.protect(u, 1, 4));
  const Tensor second = of::tensor::deserialize_tensor(dp.protect(u, 1, 4));
  std::size_t same = 0;
  for (std::size_t i = 0; i < u.numel(); ++i) same += first[i] == second[i];
  EXPECT_EQ(same, 0u);
  EXPECT_EQ(dp.accountant().releases(), 2u);
  // Rebinding the stream restarts at release 0.
  dp.set_stream(3, 1);
  const Tensor again = of::tensor::deserialize_tensor(dp.protect(u, 1, 4));
  EXPECT_EQ(std::memcmp(again.data(), first.data(), u.numel() * sizeof(float)), 0);
}

// 1M draws of the kernel's unit Gaussian (u = 0, σ = 1) against N(0, 1):
// moments, a Kolmogorov–Smirnov statistic, and the 3σ/4σ tail counts.
TEST(DpStream, NoiseIsStandardNormal) {
  const std::size_t n = 1u << 20;
  const std::vector<float> zero(n, 0.0f);
  std::vector<float> z(n);
  const of::simd::NoiseStream stream{{0xC0FFEEu, 0u}, 0, 0, 0};
  of::simd::dp_perturb_store_bytes(reinterpret_cast<std::uint8_t*>(z.data()), zero.data(),
                                   0.0f, 1.0, stream, 0, n);
  double m1 = 0.0, m2 = 0.0, m4 = 0.0;
  std::size_t beyond3 = 0, beyond4 = 0;
  for (float v : z) {
    const double d = v;
    m1 += d;
    m2 += d * d;
    m4 += d * d * d * d;
    beyond3 += std::fabs(d) > 3.0;
    beyond4 += std::fabs(d) > 4.0;
  }
  const double nn = static_cast<double>(n);
  m1 /= nn;
  m2 /= nn;
  m4 /= nn;
  // Five standard errors: √(1/n), √(2/n), √(24/n).
  EXPECT_NEAR(m1, 0.0, 5.0 * std::sqrt(1.0 / nn));
  EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / nn));
  EXPECT_NEAR(m4 / (m2 * m2), 3.0, 5.0 * std::sqrt(24.0 / nn));

  std::sort(z.begin(), z.end());
  double ks = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double cdf = 0.5 * std::erfc(-static_cast<double>(z[i]) / std::sqrt(2.0));
    ks = std::max({ks, cdf - static_cast<double>(i) / nn,
                   static_cast<double>(i + 1) / nn - cdf});
  }
  EXPECT_LT(ks, 1.95 / std::sqrt(nn));  // the α = 0.001 critical value

  const auto within_binomial = [nn](std::size_t count, double p) {
    const double mean = nn * p, sd = std::sqrt(nn * p * (1.0 - p));
    return std::fabs(static_cast<double>(count) - mean) <= 5.0 * sd;
  };
  EXPECT_TRUE(within_binomial(beyond3, std::erfc(3.0 / std::sqrt(2.0)))) << beyond3;
  EXPECT_TRUE(within_binomial(beyond4, std::erfc(4.0 / std::sqrt(2.0)))) << beyond4;
}

// --- secure aggregation --------------------------------------------------------------

class SecureAggSweep : public ::testing::TestWithParam<int> {};

TEST_P(SecureAggSweep, MasksCancelExactly) {
  const int k = GetParam();
  of::privacy::SecureAggregation sa("test-key", k);
  Rng rng(26);
  std::vector<Tensor> updates;
  Tensor expected({32});
  for (int i = 0; i < k; ++i) {
    updates.push_back(Tensor::randn({32}, rng));
    expected.add_(updates.back());
  }
  std::vector<Bytes> protected_updates;
  for (int i = 0; i < k; ++i)
    protected_updates.push_back(sa.protect(updates[static_cast<std::size_t>(i)], i, k));
  const Tensor sum = sa.aggregate_sum(protected_updates, 32);
  // Fixed-point quantization error only: k · 2^-16 per coordinate.
  EXPECT_TRUE(sum.allclose(expected, static_cast<float>(k) * 2e-5f + 1e-4f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(CohortSizes, SecureAggSweep, ::testing::Values(1, 2, 3, 8, 16));

TEST(SecureAgg, IndividualUpdateLooksRandom) {
  const int k = 4;
  of::privacy::SecureAggregation sa("test-key", k);
  const Tensor zeros({1000});
  const Bytes b = sa.protect(zeros, 0, k);
  // Interpret the masked payload: values should be spread over uint64, not
  // concentrated near the tiny fixed-point encodings of 0.
  std::size_t off = 8;  // skip the length header
  std::size_t large = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    const auto v = of::tensor::read_pod<std::uint64_t>(b, off);
    if (v > (1ULL << 32)) ++large;
  }
  EXPECT_GT(large, 400u);  // ≈half of uniformly random values exceed 2^32
}

TEST(SecureAgg, PairSeedsSymmetric) {
  of::privacy::SecureAggregation sa("k", 5);
  EXPECT_EQ(sa.pair_seed(1, 3), sa.pair_seed(3, 1));
  EXPECT_NE(sa.pair_seed(1, 3), sa.pair_seed(1, 4));
}

TEST(SecureAgg, DifferentGroupKeysDifferentMasks) {
  of::privacy::SecureAggregation a("key-a", 3), b("key-b", 3);
  EXPECT_NE(a.pair_seed(0, 1), b.pair_seed(0, 1));
}

TEST(SecureAgg, DiffieHellmanModeCancelsToo) {
  const int k = 3;
  of::privacy::SecureAggregation sa("unused", k,
                                    of::privacy::SaKeyAgreement::DiffieHellman);
  Rng rng(27);
  std::vector<Bytes> frames;
  Tensor expected({16});
  for (int i = 0; i < k; ++i) {
    const Tensor t = Tensor::randn({16}, rng);
    expected.add_(t);
    frames.push_back(sa.protect(t, i, k));
  }
  EXPECT_TRUE(sa.aggregate_sum(frames, 16).allclose(expected, 1e-3f, 1e-3f));
}

TEST(SecureAgg, CohortMismatchThrows) {
  of::privacy::SecureAggregation sa("k", 4);
  EXPECT_THROW(sa.protect(Tensor({4}), 0, 5), std::runtime_error);
  EXPECT_THROW(sa.protect(Tensor({4}), 4, 4), std::runtime_error);
}

// --- Diffie–Hellman -------------------------------------------------------------------

TEST(DiffieHellman, SharedKeySymmetry) {
  const auto group = of::privacy::DhGroup::default_group();
  Rng rng(28);
  of::privacy::DhParty alice(group, rng), bob(group, rng);
  EXPECT_EQ(alice.shared_key(bob.public_value()), bob.shared_key(alice.public_value()));
}

TEST(DiffieHellman, ThirdPartyGetsDifferentKey) {
  const auto group = of::privacy::DhGroup::default_group();
  Rng rng(29);
  of::privacy::DhParty alice(group, rng), bob(group, rng), eve(group, rng);
  EXPECT_NE(alice.shared_key(bob.public_value()), alice.shared_key(eve.public_value()));
}

TEST(DiffieHellman, GroupPrimeIsPrime) {
  Rng rng(30);
  EXPECT_TRUE(BigUInt::is_probable_prime(of::privacy::DhGroup::default_group().p, rng));
  EXPECT_EQ(of::privacy::DhGroup::default_group().p.bit_length(), 384u);
}

// --- HE mechanism + registry -----------------------------------------------------------

TEST(HeMechanism, EndToEndSum) {
  of::privacy::HomomorphicEncryption he(160, 8, 31);
  Rng rng(32);
  const Tensor a = Tensor::randn({20}, rng);
  const Tensor b = Tensor::randn({20}, rng);
  const Tensor sum =
      he.aggregate_sum({he.protect(a, 0, 2), he.protect(b, 1, 2)}, 20);
  EXPECT_TRUE(sum.allclose(a + b, 1e-2f, 1e-3f));
}

TEST(HeMechanism, SharedKeygenSeedInteroperates) {
  // Two mechanism instances with the same keygen seed (different enc seeds)
  // must produce mutually aggregatable ciphertexts — the Engine relies on it.
  of::privacy::HomomorphicEncryption client_a(160, 8, 77, 1001);
  of::privacy::HomomorphicEncryption client_b(160, 8, 77, 1002);
  of::privacy::HomomorphicEncryption server(160, 8, 77, 1003);
  Rng rng(33);
  const Tensor a = Tensor::randn({10}, rng);
  const Tensor b = Tensor::randn({10}, rng);
  const Tensor sum =
      server.aggregate_sum({client_a.protect(a, 0, 2), client_b.protect(b, 1, 2)}, 10);
  EXPECT_TRUE(sum.allclose(a + b, 1e-2f, 1e-3f));
}

TEST(Registry, AllMechanismsConstructFromConfig) {
  auto dp_cfg = of::config::parse_yaml(
      "_target_: src.omnifed.privacy.DifferentialPrivacy\nepsilon: 1.0\ndelta: 1.0e-5\n");
  EXPECT_EQ(of::privacy::make_mechanism(dp_cfg)->name(), "DifferentialPrivacy");
  auto sa_cfg = of::config::parse_yaml(
      "_target_: SecureAggregation\nnum_clients: 4\n");
  EXPECT_EQ(of::privacy::make_mechanism(sa_cfg)->name(), "SecureAggregation");
  auto he_cfg = of::config::parse_yaml(
      "_target_: HomomorphicEncryption\nkey_bits: 128\n");
  EXPECT_EQ(of::privacy::make_mechanism(he_cfg)->name(), "HomomorphicEncryption");
  auto none_cfg = of::config::parse_yaml("_target_: NoPrivacy\n");
  EXPECT_EQ(of::privacy::make_mechanism(none_cfg)->name(), "NoPrivacy");
}

}  // namespace
