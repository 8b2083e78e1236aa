/**
 * @file
 * The smallest program built against the mmxdsp libraries from outside
 * the repository's own CMake project: one saturating MMX add through the
 * public dispatch header. Exits nonzero if the result is wrong.
 */

#include <cstdio>

#include "mmx/mmx_ops.hh"

int
main()
{
    using mmxdsp::mmx::MmxReg;
    const MmxReg r =
        mmxdsp::mmx::paddsw(MmxReg::splatW(0x7fff), MmxReg::splatW(1));
    if (r.bits != MmxReg::splatW(0x7fff).bits) {
        std::fprintf(stderr, "paddsw did not saturate\n");
        return 1;
    }
    std::printf("ok\n");
    return 0;
}
