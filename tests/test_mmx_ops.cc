/**
 * @file
 * Unit and property tests for the MMX functional semantics.
 *
 * The property tests drive every lane-wise operation with pseudo-random
 * operands and compare each lane against an independently computed scalar
 * reference, so the packed implementations cannot share a bug with the
 * oracle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "mmx/mmx_ops.hh"
#include "support/rng.hh"

namespace mmxdsp::mmx {
namespace {

MmxReg
randomReg(Rng &rng)
{
    return MmxReg{rng.next()};
}

// ---------------- lane accessors ----------------

TEST(MmxReg, LaneAccessorsMatchLittleEndianLayout)
{
    MmxReg r(0x8877665544332211ull);
    EXPECT_EQ(r.ub(0), 0x11);
    EXPECT_EQ(r.ub(7), 0x88);
    EXPECT_EQ(r.uw(0), 0x2211);
    EXPECT_EQ(r.uw(3), 0x8877);
    EXPECT_EQ(r.ud(0), 0x44332211u);
    EXPECT_EQ(r.ud(1), 0x88776655u);
    EXPECT_EQ(r.sb(7), static_cast<int8_t>(0x88));
    EXPECT_EQ(r.sw(3), static_cast<int16_t>(0x8877));
}

TEST(MmxReg, SettersAreLanePrecise)
{
    MmxReg r(0);
    r.setW(2, 0xbeef);
    EXPECT_EQ(r.bits, 0x0000beef00000000ull);
    r.setB(0, 0xaa);
    EXPECT_EQ(r.ub(0), 0xaa);
    EXPECT_EQ(r.uw(2), 0xbeef);
    r.setD(1, 0x12345678);
    EXPECT_EQ(r.ud(1), 0x12345678u);
    EXPECT_EQ(r.ub(0), 0xaa);
}

TEST(MmxReg, LoadStoreRoundTrip)
{
    uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    MmxReg r = MmxReg::load(buf);
    EXPECT_EQ(r.ub(0), 1);
    EXPECT_EQ(r.ub(7), 8);
    uint8_t out[8] = {};
    r.store(out);
    EXPECT_EQ(std::memcmp(buf, out, 8), 0);
}

// ---------------- wraparound arithmetic ----------------

TEST(MmxOps, PaddwWrapsAround)
{
    MmxReg a = MmxReg::fromWords(32767, -32768, 1000, -1);
    MmxReg b = MmxReg::fromWords(1, -1, 24, 1);
    MmxReg r = paddw(a, b);
    EXPECT_EQ(r.sw(0), -32768); // 32767 + 1 wraps
    EXPECT_EQ(r.sw(1), 32767);  // -32768 - 1 wraps
    EXPECT_EQ(r.sw(2), 1024);
    EXPECT_EQ(r.sw(3), 0);
}

TEST(MmxOps, PaddswSaturates)
{
    MmxReg a = MmxReg::fromWords(32767, -32768, 30000, -30000);
    MmxReg b = MmxReg::fromWords(1, -1, 10000, -10000);
    MmxReg r = paddsw(a, b);
    EXPECT_EQ(r.sw(0), 32767);
    EXPECT_EQ(r.sw(1), -32768);
    EXPECT_EQ(r.sw(2), 32767);
    EXPECT_EQ(r.sw(3), -32768);
}

TEST(MmxOps, PaddusbSaturatesUnsigned)
{
    MmxReg a = MmxReg::splatB(250);
    MmxReg b = MmxReg::splatB(10);
    MmxReg r = paddusb(a, b);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(r.ub(i), 255);
    EXPECT_EQ(paddusb(MmxReg::splatB(0xff), MmxReg::splatB(1)).bits,
              MmxReg::splatB(0xff).bits);
}

TEST(MmxOps, PsubusbFloorsAtZero)
{
    MmxReg a = MmxReg::splatB(10);
    MmxReg b = MmxReg::splatB(25);
    MmxReg r = psubusb(a, b);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(r.ub(i), 0);
    EXPECT_EQ(psubusw(MmxReg::splatW(0), MmxReg::splatW(1)).bits, 0ull);
}

// ---------------- multiply ----------------

TEST(MmxOps, PmullwPmulhwSplitProduct)
{
    MmxReg a = MmxReg::fromWords(1000, -1000, 32767, -32768);
    MmxReg b = MmxReg::fromWords(2000, 2000, 32767, -32768);
    MmxReg lo = pmullw(a, b);
    MmxReg hi = pmulhw(a, b);
    for (int i = 0; i < 4; ++i) {
        int32_t prod = static_cast<int32_t>(a.sw(i))
                       * static_cast<int32_t>(b.sw(i));
        int32_t recon = (static_cast<int32_t>(hi.sw(i)) << 16)
                        | lo.uw(i);
        EXPECT_EQ(recon, prod) << "lane " << i;
    }
}

TEST(MmxOps, PmaddwdFormsDotProductHalves)
{
    MmxReg a = MmxReg::fromWords(100, 200, -300, 400);
    MmxReg b = MmxReg::fromWords(5, -6, 7, 8);
    MmxReg r = pmaddwd(a, b);
    EXPECT_EQ(r.sd(0), 100 * 5 + 200 * -6);
    EXPECT_EQ(r.sd(1), -300 * 7 + 400 * 8);
}

TEST(MmxOps, PmaddwdOverflowCornerCase)
{
    // The documented corner case: all four inputs = 0x8000 wraps.
    MmxReg a = MmxReg::fromWords(-32768, -32768, 0, 0);
    MmxReg r = pmaddwd(a, a);
    EXPECT_EQ(r.ud(0), 0x80000000u);
}

// ---------------- compare ----------------

TEST(MmxOps, PcmpgtwIsSignedAllOnesMask)
{
    MmxReg a = MmxReg::fromWords(1, -1, 100, -32768);
    MmxReg b = MmxReg::fromWords(0, 0, 100, 32767);
    MmxReg r = pcmpgtw(a, b);
    EXPECT_EQ(r.uw(0), 0xffff);
    EXPECT_EQ(r.uw(1), 0x0000); // -1 not > 0 signed
    EXPECT_EQ(r.uw(2), 0x0000); // equal
    EXPECT_EQ(r.uw(3), 0x0000);
    EXPECT_EQ(pcmpgtw(MmxReg::splatW(1), MmxReg::splatW(-1)).bits, ~0ull);
}

TEST(MmxOps, PcmpeqbMask)
{
    MmxReg a = MmxReg::fromBytes(1, 2, 3, 4, 5, 6, 7, 8);
    MmxReg b = MmxReg::fromBytes(1, 0, 3, 0, 5, 0, 7, 0);
    MmxReg r = pcmpeqb(a, b);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(r.ub(i), (i % 2 == 0) ? 0xff : 0x00);
}

// ---------------- pack / unpack ----------------

TEST(MmxOps, PacksswbSaturatesWordsToBytes)
{
    MmxReg a = MmxReg::fromWords(1, -1, 300, -300);
    MmxReg b = MmxReg::fromWords(127, -128, 128, -129);
    MmxReg r = packsswb(a, b);
    EXPECT_EQ(r.sb(0), 1);
    EXPECT_EQ(r.sb(1), -1);
    EXPECT_EQ(r.sb(2), 127);
    EXPECT_EQ(r.sb(3), -128);
    EXPECT_EQ(r.sb(4), 127);
    EXPECT_EQ(r.sb(5), -128);
    EXPECT_EQ(r.sb(6), 127);
    EXPECT_EQ(r.sb(7), -128);
    EXPECT_EQ(packsswb(MmxReg::splatW(0x300), MmxReg::splatW(-0x300)).bits,
              MmxReg::fromBytes(0x7f, 0x7f, 0x7f, 0x7f, 0x80, 0x80, 0x80,
                                0x80).bits);
}

TEST(MmxOps, PackuswbSaturatesSignedWordsToUnsignedBytes)
{
    MmxReg a = MmxReg::fromWords(-5, 0, 255, 256);
    MmxReg r = packuswb(a, a);
    EXPECT_EQ(r.ub(0), 0);
    EXPECT_EQ(r.ub(1), 0);
    EXPECT_EQ(r.ub(2), 255);
    EXPECT_EQ(r.ub(3), 255);
}

TEST(MmxOps, PunpcklbwInterleavesLowBytes)
{
    MmxReg a = MmxReg::fromBytes(0x11, 0x22, 0x33, 0x44, 0, 0, 0, 0);
    MmxReg b = MmxReg::fromBytes(0xaa, 0xbb, 0xcc, 0xdd, 0, 0, 0, 0);
    MmxReg r = punpcklbw(a, b);
    EXPECT_EQ(r.ub(0), 0x11);
    EXPECT_EQ(r.ub(1), 0xaa);
    EXPECT_EQ(r.ub(2), 0x22);
    EXPECT_EQ(r.ub(3), 0xbb);
    EXPECT_EQ(r.ub(6), 0x44);
    EXPECT_EQ(r.ub(7), 0xdd);
}

TEST(MmxOps, PunpckhbwInterleavesHighBytes)
{
    MmxReg a = MmxReg::fromBytes(0, 0, 0, 0, 0x55, 0x66, 0x77, 0x88);
    MmxReg b = MmxReg::fromBytes(0, 0, 0, 0, 0xee, 0xff, 0x12, 0x34);
    MmxReg r = punpckhbw(a, b);
    EXPECT_EQ(r.ub(0), 0x55);
    EXPECT_EQ(r.ub(1), 0xee);
    EXPECT_EQ(r.ub(7), 0x34);
}

TEST(MmxOps, ZeroExtensionIdiom)
{
    // The classic unpack-with-zero idiom that widens u8 pixels to u16.
    MmxReg pixels = MmxReg::fromBytes(10, 20, 30, 40, 50, 60, 70, 250);
    MmxReg zero(0);
    MmxReg lo = punpcklbw(pixels, zero);
    MmxReg hi = punpckhbw(pixels, zero);
    EXPECT_EQ(lo.uw(0), 10);
    EXPECT_EQ(lo.uw(3), 40);
    EXPECT_EQ(hi.uw(0), 50);
    EXPECT_EQ(hi.uw(3), 250);
}

TEST(MmxOps, UnpackThenPackRoundTripsInRange)
{
    MmxReg pixels = MmxReg::fromBytes(0, 1, 127, 128, 200, 254, 255, 77);
    MmxReg zero(0);
    MmxReg lo = punpcklbw(pixels, zero);
    MmxReg hi = punpckhbw(pixels, zero);
    MmxReg back = packuswb(lo, hi);
    EXPECT_EQ(back.bits, pixels.bits);
}

// ---------------- logical & shift ----------------

TEST(MmxOps, LogicalOps)
{
    MmxReg a(0xff00ff00ff00ff00ull);
    MmxReg b(0x0ff00ff00ff00ff0ull);
    EXPECT_EQ(pand(a, b).bits, a.bits & b.bits);
    EXPECT_EQ(por(a, b).bits, a.bits | b.bits);
    EXPECT_EQ(pxor(a, b).bits, a.bits ^ b.bits);
    EXPECT_EQ(pandn(a, b).bits, ~a.bits & b.bits);
    EXPECT_EQ(pxor(a, a).bits, 0ull);
}

TEST(MmxOps, ShiftsRespectLaneBoundaries)
{
    MmxReg a = MmxReg::fromWords(0x0001, static_cast<int16_t>(0x8000),
                                 0x00f0, 0x7fff);
    MmxReg l = psllw(a, 1);
    EXPECT_EQ(l.uw(0), 0x0002);
    EXPECT_EQ(l.uw(1), 0x0000); // top bit shifted out, not into next lane
    EXPECT_EQ(l.uw(2), 0x01e0);
    EXPECT_EQ(l.uw(3), 0xfffe);

    MmxReg r = psrlw(a, 4);
    EXPECT_EQ(r.uw(1), 0x0800);
}

TEST(MmxOps, PsrawReplicatesSignBit)
{
    MmxReg a = MmxReg::fromWords(-32768, 32767, -2, 2);
    MmxReg r = psraw(a, 15);
    EXPECT_EQ(r.sw(0), -1);
    EXPECT_EQ(r.sw(1), 0);
    EXPECT_EQ(r.sw(2), -1);
    EXPECT_EQ(r.sw(3), 0);
    EXPECT_EQ(psraw(MmxReg::splatW(-2), 1).bits, MmxReg::splatW(-1).bits);
    EXPECT_EQ(psraw(MmxReg::splatW(-2), 999).bits,
              MmxReg::splatW(-1).bits);
}

TEST(MmxOps, ShiftByFullWidthZeroesLogical)
{
    MmxReg a(0xdeadbeefcafebabeull);
    EXPECT_EQ(psllw(a, 16).bits, 0ull);
    EXPECT_EQ(psrld(a, 32).bits, 0ull);
    EXPECT_EQ(psrlq(a, 64).bits, 0ull);
    // Arithmetic right shift saturates the count instead.
    MmxReg m = MmxReg::fromWords(-1, -1, -1, -1);
    EXPECT_EQ(psraw(m, 200).bits, m.bits);
}

// ---------------- randomized property sweeps ----------------

class MmxPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MmxPropertyTest, SaturatingAddSubMatchScalarReference)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 200; ++iter) {
        MmxReg a = randomReg(rng);
        MmxReg b = randomReg(rng);

        MmxReg sw = paddsw(a, b);
        MmxReg uw = paddusw(a, b);
        MmxReg swd = psubsw(a, b);
        for (int i = 0; i < 4; ++i) {
            int32_t s = a.sw(i) + b.sw(i);
            EXPECT_EQ(sw.sw(i), std::clamp(s, -32768, 32767));
            int32_t u = a.uw(i) + b.uw(i);
            EXPECT_EQ(uw.uw(i), std::min(u, 65535));
            int32_t d = a.sw(i) - b.sw(i);
            EXPECT_EQ(swd.sw(i), std::clamp(d, -32768, 32767));
        }

        MmxReg sb = paddsb(a, b);
        MmxReg ub = psubusb(a, b);
        for (int i = 0; i < 8; ++i) {
            int32_t s = a.sb(i) + b.sb(i);
            EXPECT_EQ(sb.sb(i), std::clamp(s, -128, 127));
            int32_t d = a.ub(i) - b.ub(i);
            EXPECT_EQ(ub.ub(i), std::max(d, 0));
        }
    }
}

TEST_P(MmxPropertyTest, WraparoundMatchesModularArithmetic)
{
    Rng rng(GetParam() ^ 0xabcdef);
    for (int iter = 0; iter < 200; ++iter) {
        MmxReg a = randomReg(rng);
        MmxReg b = randomReg(rng);
        MmxReg add = paddw(a, b);
        MmxReg sub = psubw(a, b);
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(add.uw(i),
                      static_cast<uint16_t>(a.uw(i) + b.uw(i)));
            EXPECT_EQ(sub.uw(i),
                      static_cast<uint16_t>(a.uw(i) - b.uw(i)));
        }
        MmxReg addd = paddd(a, b);
        for (int i = 0; i < 2; ++i)
            EXPECT_EQ(addd.ud(i), a.ud(i) + b.ud(i));
    }
}

TEST_P(MmxPropertyTest, PmaddwdMatchesScalarDotProduct)
{
    Rng rng(GetParam() ^ 0x5eed);
    for (int iter = 0; iter < 200; ++iter) {
        MmxReg a = randomReg(rng);
        MmxReg b = randomReg(rng);
        MmxReg r = pmaddwd(a, b);
        for (int i = 0; i < 2; ++i) {
            int64_t expect =
                static_cast<int64_t>(a.sw(2 * i)) * b.sw(2 * i)
                + static_cast<int64_t>(a.sw(2 * i + 1)) * b.sw(2 * i + 1);
            EXPECT_EQ(r.sd(i), static_cast<int32_t>(expect));
        }
    }
}

TEST_P(MmxPropertyTest, PackUnpackStructure)
{
    Rng rng(GetParam() ^ 0x9a9a);
    for (int iter = 0; iter < 200; ++iter) {
        MmxReg a = randomReg(rng);
        MmxReg b = randomReg(rng);

        MmxReg wl = punpcklwd(a, b);
        MmxReg wh = punpckhwd(a, b);
        EXPECT_EQ(wl.uw(0), a.uw(0));
        EXPECT_EQ(wl.uw(1), b.uw(0));
        EXPECT_EQ(wl.uw(2), a.uw(1));
        EXPECT_EQ(wl.uw(3), b.uw(1));
        EXPECT_EQ(wh.uw(0), a.uw(2));
        EXPECT_EQ(wh.uw(1), b.uw(2));

        MmxReg dl = punpckldq(a, b);
        MmxReg dh = punpckhdq(a, b);
        EXPECT_EQ(dl.ud(0), a.ud(0));
        EXPECT_EQ(dl.ud(1), b.ud(0));
        EXPECT_EQ(dh.ud(0), a.ud(1));
        EXPECT_EQ(dh.ud(1), b.ud(1));

        MmxReg p = packssdw(a, b);
        EXPECT_EQ(p.sw(0), std::clamp(a.sd(0), -32768, 32767));
        EXPECT_EQ(p.sw(2), std::clamp(b.sd(0), -32768, 32767));
    }
}

TEST_P(MmxPropertyTest, ShiftEquivalences)
{
    Rng rng(GetParam() ^ 0x77);
    for (int iter = 0; iter < 100; ++iter) {
        MmxReg a = randomReg(rng);
        unsigned c = static_cast<unsigned>(rng.nextBelow(16));
        MmxReg l = psllw(a, c);
        MmxReg r = psrlw(a, c);
        MmxReg s = psraw(a, c);
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(l.uw(i), static_cast<uint16_t>(a.uw(i) << c));
            EXPECT_EQ(r.uw(i), static_cast<uint16_t>(a.uw(i) >> c));
            EXPECT_EQ(s.sw(i), static_cast<int16_t>(a.sw(i) >> c));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmxPropertyTest,
                         ::testing::Values(1ull, 42ull, 12345ull,
                                           0xdeadbeefull));

// ================= differential suite =================
//
// The dispatch header compiles two interchangeable implementations of
// every op (scalar reference, host SSE2 when the target has it). These
// tests drive the active one through the X-macro op list with
// adversarial lane values and random operands and demand bit-for-bit
// agreement with the scalar oracle — the gate that lets the fast path
// replace the reference on the capture hot path without ever changing
// benchmark outputs or trace contents.

// Without this, an x86-64 build that lost the SSE2 path would fall back
// to the out-of-line scalar bodies and still pass every identity test.
TEST(MmxOps, ActivePathIsHostSimdOnAmd64)
{
#if defined(__x86_64__)
#if defined(MMXDSP_MMX_HAVE_HOST_SIMD)
    EXPECT_EQ(&active::paddsw, &host::paddsw);
#else
    FAIL() << "x86-64 build without MMXDSP_MMX_HAVE_HOST_SIMD";
#endif
#else
    GTEST_SKIP() << "host SIMD path is only required on x86-64";
#endif
}

struct BinOpEntry
{
    const char *name;
    MmxReg (*ref)(MmxReg, MmxReg);
    MmxReg (*act)(MmxReg, MmxReg);
};

constexpr BinOpEntry kBinOps[] = {
#define MMXDSP_X(op, op_enum) {#op, &scalar::op, &op},
    MMXDSP_MMX_BINOP_LIST(MMXDSP_X)
#undef MMXDSP_X
};

struct ShiftOpEntry
{
    const char *name;
    MmxReg (*ref)(MmxReg, unsigned);
    MmxReg (*act)(MmxReg, unsigned);
};

constexpr ShiftOpEntry kShiftOps[] = {
#define MMXDSP_X(op, op_enum) {#op, &scalar::op, &op},
    MMXDSP_MMX_SHIFT_LIST(MMXDSP_X)
#undef MMXDSP_X
};

/** Saturation/carry corner operands plus lane-boundary patterns. */
std::vector<MmxReg>
adversarialRegs()
{
    std::vector<MmxReg> regs;
    for (int16_t w : {int16_t(0), int16_t(1), int16_t(-1), int16_t(0x7fff),
                      int16_t(-0x8000), int16_t(0x7ffe), int16_t(-0x7fff),
                      int16_t(0x00ff), int16_t(0x0100), int16_t(-0x0100)})
        regs.push_back(MmxReg::splatW(w));
    for (uint8_t b : {uint8_t(0x00), uint8_t(0x01), uint8_t(0x7f),
                      uint8_t(0x80), uint8_t(0xff), uint8_t(0x7e),
                      uint8_t(0x81)})
        regs.push_back(MmxReg::splatB(b));
    // Mixed-lane extremes: saturating ops must clamp each lane
    // independently, compares must not leak carries across lanes.
    regs.push_back(MmxReg::fromWords(0x7fff, -0x8000, -1, 0));
    regs.push_back(MmxReg::fromWords(-0x8000, 0x7fff, 1, -1));
    regs.push_back(MmxReg::fromDwords(0x7fffffff, INT32_MIN));
    regs.push_back(MmxReg::fromDwords(INT32_MIN, 0x7fffffff));
    regs.push_back(MmxReg::fromBytes(0x7f, 0x80, 0xff, 0x00, 0x01, 0xfe,
                                     0x81, 0x7e));
    regs.push_back(MmxReg(0xaaaaaaaaaaaaaaaaull));
    regs.push_back(MmxReg(0x5555555555555555ull));
    return regs;
}

TEST(MmxDifferential, BinopsAgreeOnAdversarialLanes)
{
    const std::vector<MmxReg> regs = adversarialRegs();
    for (const BinOpEntry &op : kBinOps) {
        for (MmxReg a : regs) {
            for (MmxReg b : regs) {
                EXPECT_EQ(op.act(a, b).bits, op.ref(a, b).bits)
                    << op.name << " active mismatch, a=0x" << std::hex
                    << a.bits << " b=0x" << b.bits;
            }
        }
    }
}

TEST(MmxDifferential, BinopsAgreeOnRandomLanes)
{
    Rng rng(0x5ca1ab1eull);
    for (const BinOpEntry &op : kBinOps) {
        for (int iter = 0; iter < 4096; ++iter) {
            const MmxReg a = randomReg(rng);
            const MmxReg b = randomReg(rng);
            ASSERT_EQ(op.act(a, b).bits, op.ref(a, b).bits)
                << op.name << " active mismatch, a=0x" << std::hex << a.bits
                << " b=0x" << b.bits;
        }
    }
}

TEST(MmxDifferential, ShiftsAgreeIncludingOverwideCounts)
{
    const std::vector<MmxReg> regs = adversarialRegs();
    const unsigned counts[] = {0,  1,  2,  3,  7,  8,  14, 15,
                               16, 17, 30, 31, 32, 33, 47, 48,
                               62, 63, 64, 65, 127, 1u << 20, UINT32_MAX};
    for (const ShiftOpEntry &op : kShiftOps) {
        for (MmxReg a : regs) {
            for (unsigned c : counts) {
                EXPECT_EQ(op.act(a, c).bits, op.ref(a, c).bits)
                    << op.name << " active mismatch, a=0x" << std::hex
                    << a.bits << std::dec << " count=" << c;
            }
        }
    }
}

TEST(MmxDifferential, ShiftsAgreeOnRandomLanes)
{
    Rng rng(0xf005ba11ull);
    for (const ShiftOpEntry &op : kShiftOps) {
        for (int iter = 0; iter < 4096; ++iter) {
            const MmxReg a = randomReg(rng);
            const unsigned c = static_cast<unsigned>(rng.nextBelow(70));
            ASSERT_EQ(op.act(a, c).bits, op.ref(a, c).bits)
                << op.name << " active mismatch, a=0x" << std::hex << a.bits
                << std::dec << " count=" << c;
        }
    }
}

} // namespace
} // namespace mmxdsp::mmx
