/**
 * Scalar lane-loop reference implementations (mmx_scalar.hh). Kept
 * out-of-line on purpose: this is the golden oracle the host-SSE2 path
 * is differentially tested against, and the active path on targets
 * without SSE2.
 */

#include "mmx_scalar.hh"

#include "support/fixed_point.hh"

namespace mmxdsp::mmx::scalar {

namespace {

/** Apply a lane-wise byte operation. */
template <typename Fn>
MmxReg
mapB(MmxReg a, MmxReg b, Fn fn)
{
    MmxReg r;
    for (int i = 0; i < 8; ++i)
        r.setB(i, fn(a, b, i));
    return r;
}

/** Apply a lane-wise word operation. */
template <typename Fn>
MmxReg
mapW(MmxReg a, MmxReg b, Fn fn)
{
    MmxReg r;
    for (int i = 0; i < 4; ++i)
        r.setW(i, fn(a, b, i));
    return r;
}

/** Apply a lane-wise dword operation. */
template <typename Fn>
MmxReg
mapD(MmxReg a, MmxReg b, Fn fn)
{
    MmxReg r;
    for (int i = 0; i < 2; ++i)
        r.setD(i, fn(a, b, i));
    return r;
}

} // namespace

// ---------------- add ----------------

MmxReg
paddb(MmxReg a, MmxReg b)
{
    return mapB(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint8_t>(x.ub(i) + y.ub(i));
    });
}

MmxReg
paddw(MmxReg a, MmxReg b)
{
    return mapW(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint16_t>(x.uw(i) + y.uw(i));
    });
}

MmxReg
paddd(MmxReg a, MmxReg b)
{
    return mapD(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint32_t>(x.ud(i) + y.ud(i));
    });
}

MmxReg
paddsb(MmxReg a, MmxReg b)
{
    return mapB(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint8_t>(saturate8(x.sb(i) + y.sb(i)));
    });
}

MmxReg
paddsw(MmxReg a, MmxReg b)
{
    return mapW(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint16_t>(saturate16(x.sw(i) + y.sw(i)));
    });
}

MmxReg
paddusb(MmxReg a, MmxReg b)
{
    return mapB(a, b, [](MmxReg x, MmxReg y, int i) {
        return saturateU8(x.ub(i) + y.ub(i));
    });
}

MmxReg
paddusw(MmxReg a, MmxReg b)
{
    return mapW(a, b, [](MmxReg x, MmxReg y, int i) {
        return saturateU16(x.uw(i) + y.uw(i));
    });
}

// ---------------- subtract ----------------

MmxReg
psubb(MmxReg a, MmxReg b)
{
    return mapB(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint8_t>(x.ub(i) - y.ub(i));
    });
}

MmxReg
psubw(MmxReg a, MmxReg b)
{
    return mapW(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint16_t>(x.uw(i) - y.uw(i));
    });
}

MmxReg
psubd(MmxReg a, MmxReg b)
{
    return mapD(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint32_t>(x.ud(i) - y.ud(i));
    });
}

MmxReg
psubsb(MmxReg a, MmxReg b)
{
    return mapB(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint8_t>(saturate8(x.sb(i) - y.sb(i)));
    });
}

MmxReg
psubsw(MmxReg a, MmxReg b)
{
    return mapW(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint16_t>(saturate16(x.sw(i) - y.sw(i)));
    });
}

MmxReg
psubusb(MmxReg a, MmxReg b)
{
    return mapB(a, b, [](MmxReg x, MmxReg y, int i) {
        return saturateU8(x.ub(i) - y.ub(i));
    });
}

MmxReg
psubusw(MmxReg a, MmxReg b)
{
    return mapW(a, b, [](MmxReg x, MmxReg y, int i) {
        return saturateU16(x.uw(i) - y.uw(i));
    });
}

// ---------------- multiply ----------------

MmxReg
pmulhw(MmxReg a, MmxReg b)
{
    return mapW(a, b, [](MmxReg x, MmxReg y, int i) {
        int32_t prod = static_cast<int32_t>(x.sw(i))
                       * static_cast<int32_t>(y.sw(i));
        return static_cast<uint16_t>(static_cast<uint32_t>(prod) >> 16);
    });
}

MmxReg
pmullw(MmxReg a, MmxReg b)
{
    return mapW(a, b, [](MmxReg x, MmxReg y, int i) {
        int32_t prod = static_cast<int32_t>(x.sw(i))
                       * static_cast<int32_t>(y.sw(i));
        return static_cast<uint16_t>(prod & 0xffff);
    });
}

MmxReg
pmaddwd(MmxReg a, MmxReg b)
{
    MmxReg r;
    for (int i = 0; i < 2; ++i) {
        int32_t lo = static_cast<int32_t>(a.sw(2 * i))
                     * static_cast<int32_t>(b.sw(2 * i));
        int32_t hi = static_cast<int32_t>(a.sw(2 * i + 1))
                     * static_cast<int32_t>(b.sw(2 * i + 1));
        // Wraparound add, matching hardware (the only overflow case is
        // all four inputs equal to -32768).
        r.setD(i, static_cast<uint32_t>(lo) + static_cast<uint32_t>(hi));
    }
    return r;
}

// ---------------- compare ----------------

MmxReg
pcmpeqb(MmxReg a, MmxReg b)
{
    return mapB(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint8_t>(x.ub(i) == y.ub(i) ? 0xff : 0x00);
    });
}

MmxReg
pcmpeqw(MmxReg a, MmxReg b)
{
    return mapW(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint16_t>(x.uw(i) == y.uw(i) ? 0xffff : 0x0000);
    });
}

MmxReg
pcmpeqd(MmxReg a, MmxReg b)
{
    return mapD(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint32_t>(x.ud(i) == y.ud(i) ? 0xffffffffu : 0u);
    });
}

MmxReg
pcmpgtb(MmxReg a, MmxReg b)
{
    return mapB(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint8_t>(x.sb(i) > y.sb(i) ? 0xff : 0x00);
    });
}

MmxReg
pcmpgtw(MmxReg a, MmxReg b)
{
    return mapW(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint16_t>(x.sw(i) > y.sw(i) ? 0xffff : 0x0000);
    });
}

MmxReg
pcmpgtd(MmxReg a, MmxReg b)
{
    return mapD(a, b, [](MmxReg x, MmxReg y, int i) {
        return static_cast<uint32_t>(x.sd(i) > y.sd(i) ? 0xffffffffu : 0u);
    });
}

// ---------------- pack ----------------

MmxReg
packsswb(MmxReg a, MmxReg b)
{
    MmxReg r;
    for (int i = 0; i < 4; ++i)
        r.setB(i, static_cast<uint8_t>(saturate8(a.sw(i))));
    for (int i = 0; i < 4; ++i)
        r.setB(4 + i, static_cast<uint8_t>(saturate8(b.sw(i))));
    return r;
}

MmxReg
packssdw(MmxReg a, MmxReg b)
{
    MmxReg r;
    for (int i = 0; i < 2; ++i)
        r.setW(i, static_cast<uint16_t>(saturate16(a.sd(i))));
    for (int i = 0; i < 2; ++i)
        r.setW(2 + i, static_cast<uint16_t>(saturate16(b.sd(i))));
    return r;
}

MmxReg
packuswb(MmxReg a, MmxReg b)
{
    MmxReg r;
    for (int i = 0; i < 4; ++i)
        r.setB(i, saturateU8(a.sw(i)));
    for (int i = 0; i < 4; ++i)
        r.setB(4 + i, saturateU8(b.sw(i)));
    return r;
}

// ---------------- unpack ----------------

MmxReg
punpcklbw(MmxReg a, MmxReg b)
{
    MmxReg r;
    for (int i = 0; i < 4; ++i) {
        r.setB(2 * i, a.ub(i));
        r.setB(2 * i + 1, b.ub(i));
    }
    return r;
}

MmxReg
punpcklwd(MmxReg a, MmxReg b)
{
    MmxReg r;
    for (int i = 0; i < 2; ++i) {
        r.setW(2 * i, a.uw(i));
        r.setW(2 * i + 1, b.uw(i));
    }
    return r;
}

MmxReg
punpckldq(MmxReg a, MmxReg b)
{
    MmxReg r;
    r.setD(0, a.ud(0));
    r.setD(1, b.ud(0));
    return r;
}

MmxReg
punpckhbw(MmxReg a, MmxReg b)
{
    MmxReg r;
    for (int i = 0; i < 4; ++i) {
        r.setB(2 * i, a.ub(4 + i));
        r.setB(2 * i + 1, b.ub(4 + i));
    }
    return r;
}

MmxReg
punpckhwd(MmxReg a, MmxReg b)
{
    MmxReg r;
    for (int i = 0; i < 2; ++i) {
        r.setW(2 * i, a.uw(2 + i));
        r.setW(2 * i + 1, b.uw(2 + i));
    }
    return r;
}

MmxReg
punpckhdq(MmxReg a, MmxReg b)
{
    MmxReg r;
    r.setD(0, a.ud(1));
    r.setD(1, b.ud(1));
    return r;
}

// ---------------- logical ----------------

MmxReg
pand(MmxReg a, MmxReg b)
{
    return MmxReg(a.bits & b.bits);
}

MmxReg
pandn(MmxReg a, MmxReg b)
{
    return MmxReg(~a.bits & b.bits);
}

MmxReg
por(MmxReg a, MmxReg b)
{
    return MmxReg(a.bits | b.bits);
}

MmxReg
pxor(MmxReg a, MmxReg b)
{
    return MmxReg(a.bits ^ b.bits);
}

// ---------------- shifts ----------------

MmxReg
psllw(MmxReg a, unsigned count)
{
    if (count > 15)
        return MmxReg(0);
    MmxReg r;
    for (int i = 0; i < 4; ++i)
        r.setW(i, static_cast<uint16_t>(a.uw(i) << count));
    return r;
}

MmxReg
pslld(MmxReg a, unsigned count)
{
    if (count > 31)
        return MmxReg(0);
    MmxReg r;
    for (int i = 0; i < 2; ++i)
        r.setD(i, a.ud(i) << count);
    return r;
}

MmxReg
psllq(MmxReg a, unsigned count)
{
    if (count > 63)
        return MmxReg(0);
    return MmxReg(a.bits << count);
}

MmxReg
psrlw(MmxReg a, unsigned count)
{
    if (count > 15)
        return MmxReg(0);
    MmxReg r;
    for (int i = 0; i < 4; ++i)
        r.setW(i, static_cast<uint16_t>(a.uw(i) >> count));
    return r;
}

MmxReg
psrld(MmxReg a, unsigned count)
{
    if (count > 31)
        return MmxReg(0);
    MmxReg r;
    for (int i = 0; i < 2; ++i)
        r.setD(i, a.ud(i) >> count);
    return r;
}

MmxReg
psrlq(MmxReg a, unsigned count)
{
    if (count > 63)
        return MmxReg(0);
    return MmxReg(a.bits >> count);
}

MmxReg
psraw(MmxReg a, unsigned count)
{
    if (count > 15)
        count = 15;
    MmxReg r;
    for (int i = 0; i < 4; ++i)
        r.setW(i, static_cast<uint16_t>(a.sw(i) >> count));
    return r;
}

MmxReg
psrad(MmxReg a, unsigned count)
{
    if (count > 31)
        count = 31;
    MmxReg r;
    for (int i = 0; i < 2; ++i)
        r.setD(i, static_cast<uint32_t>(a.sd(i) >> count));
    return r;
}

} // namespace mmxdsp::mmx::scalar
